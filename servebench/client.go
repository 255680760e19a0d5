package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"cntfet/internal/cluster"
)

// client is the load generator's HTTP side: one keep-alive connection
// per host, no proxy, no compression.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// sample is one timed job.
type sample struct {
	lat, ttfb time.Duration
	bytes     int
	// replica is the Cntshard-Replica header of a routed answer.
	replica string
	err     error
}

// post sends body to url's /v1/jobs and reads the whole answer into
// *buf, which is reused across calls and grown as needed. lat runs
// from send to the last body byte, ttfb to the first.
func (c *client) post(ctx context.Context, url string, body []byte, buf *[]byte) sample {
	var s sample
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	b := (*buf)[:cap(*buf)]
	n := 0
	for {
		if n == len(b) {
			nb := make([]byte, 2*len(b)+16<<10)
			copy(nb, b[:n])
			b = nb
		}
		m, err := resp.Body.Read(b[n:])
		if m > 0 && n == 0 {
			s.ttfb = time.Since(t0)
		}
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			s.err = err
			break
		}
	}
	s.lat = time.Since(t0)
	*buf = b[:n]
	s.bytes = n
	s.replica = resp.Header.Get(cluster.ReplicaHeader)
	if s.err == nil && resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, b[:n])
	}
	return s
}
