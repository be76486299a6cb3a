package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro"
	"repro/internal/core"
	"repro/internal/jobspec"
)

// expectation is the library's answer for one input: repro.Solve for a
// batch job, repro.ParetoPeriodEnergy plus the server-problem query for a
// sweep.
type expectation struct {
	res   repro.Result
	err   error
	front []repro.ParetoPoint
	min   float64
}

func solveExpectation(inst *repro.Instance, req repro.Request) expectation {
	res, err := repro.Solve(inst, req)
	return expectation{res: res, err: err}
}

func sweepExpectation(inst *repro.Instance, req repro.Request, target float64) expectation {
	front, err := repro.ParetoPeriodEnergy(inst, req.Rule, req.Model)
	return expectation{front: front, err: err, min: repro.MinEnergyUnderPeriod(front, target)}
}

// methodClass folds the dispatcher's methods into the three layers below
// core: a polynomial theorem, the exact search, or the annealer.
func methodClass(m repro.Method) string {
	switch m {
	case core.MethodExact:
		return "exact"
	case core.MethodHeuristic:
		return "heur"
	}
	return "poly"
}

// answer is the canonical form of one operation's answer, as the checker
// compares it and the digest hashes it. Numbers are float64 bit patterns;
// a JSON null (a non-finite value on the wire) is nullBits.
type answer struct {
	code   string // "" or "degraded" on success, the error class otherwise
	method string
	nums   []uint64
}

const nullBits = math.MaxUint64

func bitsOf(x float64) uint64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return nullBits
	}
	return math.Float64bits(x)
}

// want renders the library's answer in canonical form.
func (e *expectation) want(sweep bool) answer {
	if e.err != nil {
		return answer{code: jobspec.ErrorCode(e.err)}
	}
	if sweep {
		a := answer{nums: []uint64{bitsOf(e.min)}}
		for _, p := range e.front {
			a.nums = append(a.nums, bitsOf(p.Period), bitsOf(p.Energy))
		}
		return a
	}
	a := answer{method: string(e.res.Method), nums: []uint64{
		bitsOf(e.res.Value), bitsOf(e.res.Metrics.Period), bitsOf(e.res.Metrics.Latency), bitsOf(e.res.Metrics.Energy)}}
	if e.res.Degraded {
		a.code = jobspec.CodeDegraded
	}
	return a
}

func (a answer) equal(b answer) bool {
	if a.code != b.code || a.method != b.method || len(a.nums) != len(b.nums) {
		return false
	}
	for i := range a.nums {
		if a.nums[i] != b.nums[i] {
			return false
		}
	}
	return true
}

// fields is a JSON object read field by field, so that a field the
// program stops sending drops what depends on it instead of breaking the
// build.
type fields map[string]json.RawMessage

func (f fields) str(name string) string {
	var s string
	if raw, ok := f[name]; ok {
		json.Unmarshal(raw, &s) // a non-string reads as "", which no check accepts
	}
	return s
}

// num reads a number field: absent is 0 (the wire omits zero values), null
// is nullBits.
func (f fields) num(name string) (uint64, error) {
	raw, ok := f[name]
	if !ok {
		return math.Float64bits(0), nil
	}
	if string(raw) == "null" {
		return nullBits, nil
	}
	x, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return 0, fmt.Errorf("field %s: %w", name, err)
	}
	return math.Float64bits(x), nil
}

// float reads a number field, reporting whether it is present.
func (f fields) float(name string) (float64, bool) {
	var x float64
	raw, ok := f[name]
	if !ok || json.Unmarshal(raw, &x) != nil {
		return 0, false
	}
	return x, true
}

// jobAnswer canonicalizes one /v1/batch result slot.
func jobAnswer(slot fields) (answer, error) {
	if slot.str("error") != "" {
		return answer{code: slot.str("code")}, nil
	}
	a := answer{code: slot.str("code"), method: slot.str("method")}
	for _, name := range []string{"value", "period", "latency", "energy"} {
		b, err := slot.num(name)
		if err != nil {
			return answer{}, err
		}
		a.nums = append(a.nums, b)
	}
	return a, nil
}

// sweepAnswer canonicalizes one /v1/pareto response.
func sweepAnswer(status int, body []byte) (answer, error) {
	var doc fields
	if err := json.Unmarshal(body, &doc); err != nil {
		return answer{}, err
	}
	if status != http.StatusOK {
		return answer{code: doc.str("code")}, nil
	}
	min, err := doc.num("minEnergyUnderPeriod")
	if err != nil {
		return answer{}, err
	}
	a := answer{nums: []uint64{min}}
	var points []fields
	if err := json.Unmarshal(doc["points"], &points); err != nil {
		return answer{}, fmt.Errorf("points: %w", err)
	}
	for _, p := range points {
		per, err := p.num("period")
		if err != nil {
			return answer{}, err
		}
		en, err := p.num("energy")
		if err != nil {
			return answer{}, err
		}
		a.nums = append(a.nums, per, en)
	}
	return a, nil
}

// dropped reports whether a code says a job got no answer to the problem
// itself: the service refused it, ran out of time, or failed inside.
func dropped(code string) bool {
	return code == jobspec.CodeShed || code == jobspec.CodeTimeout || code == jobspec.CodeInternal
}

// verdict is the outcome of checking a set of records. Every wrong
// operation is failed; a dropped slot that the library answers with the
// same code is failed but not wrong (the service reproduced the library).
type verdict struct {
	ops, failed, wrong int
	first              string // the first failure, for the log
}

func (v *verdict) fail(ops int, wrong bool, format string, args ...any) {
	v.failed += ops
	if wrong {
		v.wrong += ops
	}
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
}

func (v *verdict) add(o verdict) {
	v.ops += o.ops
	v.failed += o.failed
	v.wrong += o.wrong
	if v.first == "" {
		v.first = o.first
	}
}

// checker compares recorded responses with the library's answers,
// memoized per distinct input.
type checker struct {
	w   *workload
	exp []*expectation
}

func newChecker(w *workload) *checker {
	c := &checker{w: w, exp: make([]*expectation, len(w.inputs))}
	copy(c.exp, w.exp)
	return c
}

// expect computes, in parallel, the answers for every input the records
// touch that is not known yet.
func (c *checker) expect(recs []record) {
	var todo []int
	seen := make(map[int]bool)
	for _, r := range recs {
		for _, i := range c.w.reqs[r.req].inputs {
			if c.exp[i] == nil && !seen[i] {
				seen[i] = true
				todo = append(todo, i)
			}
		}
	}
	parallel(len(todo), func(k int) {
		i := todo[k]
		inst, req := c.w.load(i)
		var e expectation
		if c.w.sweep() {
			e = sweepExpectation(&inst, req, c.w.inputs[i].target)
		} else {
			e = solveExpectation(&inst, req)
		}
		c.exp[i] = &e
	})
}

// answers canonicalizes one record's response, one answer per operation.
func (c *checker) answers(r *record) ([]answer, error) {
	if r.err != nil {
		return nil, fmt.Errorf("transport: %w", r.err)
	}
	if c.w.sweep() {
		a, err := sweepAnswer(r.status, r.body)
		if err != nil {
			return nil, fmt.Errorf("status %d: %w", r.status, err)
		}
		return []answer{a}, nil
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var doc struct {
		Results []fields `json:"results"`
	}
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return nil, err
	}
	if n := len(c.w.reqs[r.req].inputs); len(doc.Results) != n {
		return nil, fmt.Errorf("%d result slots for %d jobs", len(doc.Results), n)
	}
	out := make([]answer, len(doc.Results))
	for j, slot := range doc.Results {
		a, err := jobAnswer(slot)
		if err != nil {
			return nil, fmt.Errorf("slot %d: %w", j, err)
		}
		out[j] = a
	}
	return out, nil
}

// check verifies every operation of the records and sets each record's
// failed count. A transport error, a
// non-200 batch response, a shed, timeout or internal slot, and an answer
// that differs from the library's in any bit all count as failed.
func (c *checker) check(recs []record) verdict {
	c.expect(recs)
	var v verdict
	for i := range recs {
		r := &recs[i]
		idx := c.w.reqs[r.req].inputs
		v.ops += len(idx)
		before := v.failed
		got, err := c.answers(r)
		if err != nil {
			v.fail(len(idx), true, "request %d: %v", r.req, err)
		}
		for j, a := range got {
			want := c.exp[idx[j]].want(c.w.sweep())
			switch {
			case !a.equal(want):
				v.fail(1, true, "request %d op %d (input %d): got %+v, library says %+v", r.req, j, idx[j], a, want)
			case dropped(a.code):
				v.fail(1, false, "request %d op %d (input %d): code %q, as from the library", r.req, j, idx[j], a.code)
			}
		}
		r.failed = v.failed - before
	}
	return v
}

// digest hashes the canonical answers of the records in sequence order.
// Over the fixed warmup prefix it depends only on the workload and seed.
func (c *checker) digest(recs []record) string {
	byReq := make(map[int]*record, len(recs))
	for i := range recs {
		byReq[recs[i].req] = &recs[i]
	}
	h := sha256.New()
	for k := 0; k < len(c.w.reqs); k++ {
		r, ok := byReq[k]
		if !ok {
			continue
		}
		got, err := c.answers(r)
		if err != nil {
			fmt.Fprintf(h, "error\n")
			continue
		}
		for _, a := range got {
			fmt.Fprintf(h, "%s|%s|", a.code, a.method)
			for _, n := range a.nums {
				binary.Write(h, binary.LittleEndian, n)
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
