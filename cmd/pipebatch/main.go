// Command pipebatch solves many mapping problems in one shot on the
// concurrent batch engine (repro.SolveBatch): it reads a JSON job file,
// fans the jobs across a bounded worker pool with duplicate-job
// memoization, and emits one JSON document with the per-job results (in
// input order) and the aggregate batch statistics.
//
// Usage:
//
//	pipebatch -in jobs.json [-workers 8]
//	pipebatch -in jobs.json -server http://host:8080 [-retries 5] [-retry-base 200ms] [-http-timeout 60s]
//
// The job file holds an optional default instance plus a list of jobs;
// each job may carry its own instance (overriding the default) and a
// request:
//
//	{
//	  "instance": { ... pipegen/pipemap instance schema ... },
//	  "jobs": [
//	    {"request": {"rule": "interval", "model": "overlap",
//	                 "objective": "energy", "periodBound": 2}},
//	    {"request": {"rule": "interval", "objective": "period"}},
//	    {"instance": { ... }, "request": {"objective": "latency",
//	                                      "latencyBounds": [3, 4]}}
//	  ]
//	}
//
// Request fields: rule (one-to-one | interval, default interval), model
// (overlap | no-overlap, default overlap), objective (period | latency |
// energy, default period), periodBound / latencyBound (global weighted
// thresholds expanded to per-application bounds as X / W_a),
// periodBounds / latencyBounds (explicit per-application arrays, which
// win over the global forms), energyBudget, seed, exactLimit, heurIters,
// heurRestarts.
//
// The output document mirrors the job order:
//
//	{
//	  "results": [
//	    {"value": 46, "method": "...", "optimal": true,
//	     "period": 2, "latency": 5, "energy": 46, "mapping": {...}},
//	    {"error": "core: no mapping satisfies the bounds"}
//	  ],
//	  "stats": {"jobs": 2, "cacheHits": 0, "errors": 1,
//	            "wallMs": 1.62, "methods": {"...": 1}}
//	}
//
// The document schemas live in internal/jobspec and are shared with the
// pipeserved HTTP service: a pipebatch job file can be POSTed verbatim to
// its /v1/batch endpoint. Non-finite result values are rendered as null.
//
// With -server, pipebatch does exactly that instead of solving locally:
// it POSTs the job file to <server>/v1/batch and prints the response.
// A shed response (429 or 503, the service's admission control or an
// open circuit breaker) is retried with jittered exponential backoff —
// honoring the server's Retry-After header (both RFC 7231 forms,
// delta-seconds and HTTP-date) when it asks for a longer wait — up to
// -retries times before giving up; any other non-200 is a hard error.
// Transport failures, including a hung connection hitting the
// -http-timeout per-attempt deadline, retry on the same schedule: each
// attempt is bounded, so a wedged server can never stall the retry loop
// forever.
//
// pipebatch exits non-zero on malformed input; per-job solver failures are
// reported in the results array and do not abort the batch.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/gateway"
	"repro/internal/jobspec"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pipebatch:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("pipebatch", flag.ContinueOnError)
	in := fs.String("in", "", "job file JSON (default: stdin)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	serverURL := fs.String("server", "", "POST the job file to this pipeserved base URL instead of solving locally")
	retries := fs.Int("retries", 5, "retries after a shed (429/503) or transport failure in -server mode")
	retryBase := fs.Duration("retry-base", 200*time.Millisecond, "base delay of the jittered exponential backoff")
	httpTimeout := fs.Duration("http-timeout", gateway.DefaultClientTimeout,
		"per-attempt HTTP deadline in -server mode (default twice the server's own 30s request deadline)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var r io.Reader = stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if *serverURL != "" {
		return runRemote(stdout, *serverURL, raw, *retries, *retryBase, gateway.NewClient(*httpTimeout))
	}
	doc, err := jobspec.DecodeFile(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	jobs, err := doc.BatchJobs()
	if err != nil {
		return err
	}

	results, stats := batch.Solve(jobs, batch.Options{Workers: *workers})
	out, err := jobspec.EncodeOutput(results, stats)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runRemote POSTs the raw job file to <base>/v1/batch and streams the
// response document to stdout. Shed responses (429/503) and transport
// failures — including attempts cut off by the client's own timeout —
// are retried with jittered exponential backoff; a Retry-After header
// stretches the wait when the server asks for more. The client comes
// from the shared gateway plumbing, so every attempt has a deadline.
func runRemote(stdout io.Writer, base string, body []byte, retries int, retryBase time.Duration, client *http.Client) error {
	url := strings.TrimSuffix(base, "/") + "/v1/batch"
	// The jitter decorrelates clients retrying after a shared shed; it
	// has no bearing on solver results, which the server computes.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var lastErr error
	for attempt := 0; ; attempt++ {
		retryAfter, err := postBatch(stdout, client, url, body)
		if err == nil {
			return nil
		}
		lastErr = err
		if !isRetryable(err) {
			return err
		}
		if attempt >= retries {
			return fmt.Errorf("giving up after %d attempts: %w", attempt+1, lastErr)
		}
		delay := backoffDelay(retryBase, attempt, rng)
		if retryAfter > delay {
			delay = retryAfter
		}
		fmt.Fprintf(os.Stderr, "pipebatch: attempt %d: %v; retrying in %v\n", attempt+1, err, delay.Round(time.Millisecond))
		time.Sleep(delay)
	}
}

// shedError marks a retryable failure: the server shed the request (429
// admission overflow or 503 open circuit) or the transport failed.
type shedError struct{ err error }

func (e *shedError) Error() string { return e.err.Error() }
func (e *shedError) Unwrap() error { return e.err }

func isRetryable(err error) bool {
	var se *shedError
	return errors.As(err, &se)
}

// postBatch performs one POST on the timed client. On a shed it returns
// the server's Retry-After — either RFC 7231 form, parsed by the shared
// gateway helper — as a duration (zero when absent or malformed)
// alongside the retryable error; on any other failure retryAfter is zero.
func postBatch(stdout io.Writer, client *http.Client, url string, body []byte) (retryAfter time.Duration, err error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		// Transport failure or the per-attempt timeout: both retryable —
		// the server may be restarting, or this attempt raced a stall.
		return 0, &shedError{fmt.Errorf("posting batch: %w", err)}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, &shedError{fmt.Errorf("reading response: %w", err)}
	}
	switch resp.StatusCode {
	case http.StatusOK:
		_, err := stdout.Write(out)
		return 0, err
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		retryAfter = gateway.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		return retryAfter, &shedError{fmt.Errorf("server shed the batch: %s: %s", resp.Status, strings.TrimSpace(string(out)))}
	default:
		return 0, fmt.Errorf("server answered %s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
}

// backoffDelay is the jittered exponential schedule: the nth retry waits
// a uniformly random duration in [base·2ⁿ/2, base·2ⁿ], capped at 10s.
func backoffDelay(base time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base << uint(attempt)
	const maxDelay = 10 * time.Second
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}
