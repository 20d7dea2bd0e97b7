package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"time"
)

// oracleEvery keeps every 97th response of a serve workload for the
// post-run oracle comparison (97 is coprime to the mix length, so the
// kept responses rotate through every query class).
const oracleEvery = 97

// prepared is a request with its wire body marshalled once, so the
// generator spends its share of the two cores sending, not encoding.
type prepared struct {
	req  request
	body []byte
}

func prepare(r request) *prepared { return &prepared{req: r, body: r.body()} }

// keptResponse is one response body held back for the oracle.
type keptResponse struct {
	req  request
	body []byte
}

// phaseStats is the outcome of one load phase on one endpoint.
// Latencies hold only 200 responses; every other outcome is a failure
// and, like a refused or timed-out request, has no latency to report.
type phaseStats struct {
	Name      string          `json:"name"`
	Sent      int             `json:"sent"`
	OK        int             `json:"ok"`
	Failed    int             `json:"failed"`
	Shed429   int             `json:"shed_429"`
	HTTP5xx   int             `json:"http_5xx"`
	Elapsed   time.Duration   `json:"elapsed_ns"`
	RespBytes int64           `json:"resp_bytes"`
	lat       []time.Duration // per OK request
	late      []time.Duration // open loop: generator lateness while the connection was idle
	kept      []keptResponse
	firstErr  string
}

func (p *phaseStats) merge(o *phaseStats) {
	p.Sent += o.Sent
	p.OK += o.OK
	p.Failed += o.Failed
	p.Shed429 += o.Shed429
	p.HTTP5xx += o.HTTP5xx
	p.RespBytes += o.RespBytes
	p.lat = append(p.lat, o.lat...)
	p.late = append(p.late, o.late...)
	p.kept = append(p.kept, o.kept...)
	if p.firstErr == "" {
		p.firstErr = o.firstErr
	}
}

// newClient returns an HTTP client limited to conns keep-alive
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one request and records its outcome. from is the instant
// latency is timed from: the send time in a closed loop, the due time
// in an open loop. keep retains the body for the oracle.
func post(client *http.Client, url string, body []byte, from time.Time, st *phaseStats, keep *request) {
	st.Sent++
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		st.Failed++
		if st.firstErr == "" {
			st.firstErr = err.Error()
		}
		return
	}
	var data []byte
	var n int64
	if keep != nil || resp.StatusCode != http.StatusOK {
		data, err = io.ReadAll(resp.Body)
		n = int64(len(data))
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	done := time.Now()
	switch {
	case err != nil:
		st.Failed++
		if st.firstErr == "" {
			st.firstErr = err.Error()
		}
	case resp.StatusCode == http.StatusOK:
		st.OK++
		st.RespBytes += n
		st.lat = append(st.lat, done.Sub(from))
		if keep != nil {
			st.kept = append(st.kept, keptResponse{req: *keep, body: data})
		}
	default:
		st.Failed++
		if resp.StatusCode == http.StatusTooManyRequests {
			st.Shed429++
		}
		if resp.StatusCode >= 500 {
			st.HTTP5xx++
		}
		if st.firstErr == "" {
			st.firstErr = resp.Status + ": " + string(bytes.TrimSpace(data))
		}
	}
}

// closedLoop runs clients goroutines for d, each sending its next
// request only after the previous response was read in full. next
// yields the i-th request of client c (ok=false ends that client).
func closedLoop(name string, client *http.Client, url string, clients int, d time.Duration,
	next func(c, i int) (*prepared, bool)) *phaseStats {
	parts := make([]*phaseStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < clients; c++ {
		parts[c] = &phaseStats{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := parts[c]
			for i := 0; time.Now().Before(end); i++ {
				req, ok := next(c, i)
				if !ok {
					return
				}
				var keep *request
				if i%oracleEvery == oracleEvery-1 {
					keep = &req.req
				}
				post(client, url, req.body, time.Now(), st, keep)
			}
		}(c)
	}
	wg.Wait()
	total := &phaseStats{Name: name, Elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// openLoop sends body(i) on one connection every interval for d,
// whether or not the daemon keeps up: request i is due at start +
// i*interval and its latency is timed from then, so a stall charges
// every request queued behind it. Generator lateness — how long after
// its due time a request left, counted only when the previous response
// had already arrived, i.e. the connection was idle and the delay was
// the generator's own — is reported separately.
func openLoop(name string, client *http.Client, url string, interval, d time.Duration,
	body func(i int) []byte) *phaseStats {
	st := &phaseStats{Name: name}
	start := time.Now()
	n := int(d / interval)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			st.late = append(st.late, time.Since(due))
		}
		post(client, url, body(i), due, st, nil)
	}
	st.Elapsed = time.Since(start)
	return st
}
