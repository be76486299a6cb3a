package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// corpusHeuristicDigest is the sha256 of every 1080-scenario seed-1 corpus
// answer with the heuristic forced (see heuristicCorpusDigest). It pins the
// annealer and the heuristic objective bit for bit: a change to either that
// moves one RNG draw or one float operation changes the digest.
const corpusHeuristicDigest = "01f3f9333cd7251b2accead0549f2e8613ccf2496140c5fcb4fbc95236850d33"

// heuristicCorpusDigest solves the whole gen corpus with ExactLimit 1 and a
// small fixed annealing budget, so every NP-hard cell answers through the
// heuristic (polynomial cells ignore ExactLimit and answer as usual), and
// hashes each answer's error class, value bits and mapping in corpus order.
func heuristicCorpusDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	heuristic := 0
	for _, sc := range gen.DefaultSpace().Corpus(1, 1080) {
		req := sc.Req
		req.ExactLimit, req.HeurIters, req.HeurRestarts = 1, 400, 2
		res, err := core.Solve(&sc.Inst, req)
		switch {
		case err == nil:
			put(0)
		case errors.Is(err, core.ErrInfeasible):
			put(1)
			continue
		default:
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if res.Method == core.MethodHeuristic {
			heuristic++
		}
		put(math.Float64bits(res.Value))
		for a := range res.Mapping.Apps {
			put(uint64(len(res.Mapping.Apps[a].Intervals)))
			for _, iv := range res.Mapping.Apps[a].Intervals {
				put(uint64(iv.From))
				put(uint64(iv.To))
				put(uint64(iv.Proc))
				put(uint64(iv.Mode))
			}
		}
	}
	t.Logf("%d of 1080 answers came from the heuristic", heuristic)
	if heuristic == 0 {
		t.Fatal("no corpus scenario answered through the heuristic")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHeuristicCorpusDigest checks that forced-heuristic answers over the
// whole corpus stay bit-identical to the pinned digest.
func TestHeuristicCorpusDigest(t *testing.T) {
	if got := heuristicCorpusDigest(t); got != corpusHeuristicDigest {
		t.Fatalf("forced-heuristic corpus digest %s, want %s", got, corpusHeuristicDigest)
	}
}
