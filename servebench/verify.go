package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"cntfet/internal/engine"
	"cntfet/internal/server"
)

// verifier is the correctness gate: every served family must be
// bit-identical to engine.Run in this process on the same request,
// with the row and point counts the request asked for. It resolves
// models through its own ModelCache, so a server-side build that
// differs from a fresh one fails the gate too.
type verifier struct {
	cache *server.ModelCache
}

func newVerifier() *verifier { return &verifier{cache: server.NewModelCache()} }

// want runs the request in-process and returns its IDS rows in gate
// order.
func (v *verifier) want(ctx context.Context, jr server.JobRequest) ([][]float64, error) {
	m, _, err := v.cache.Resolve(ctx, *jr.Model)
	if err != nil {
		return nil, fmt.Errorf("verify resolve: %w", err)
	}
	res, err := engine.Run(ctx, engine.Request{Kind: engine.FamilySweep, Model: m, Gates: jr.Gates, Drains: jr.Drains})
	if err != nil {
		return nil, fmt.Errorf("verify engine.Run: %w", err)
	}
	rows := make([][]float64, len(res.Family))
	for i, c := range res.Family {
		rows[i] = c.IDS
	}
	return rows, nil
}

// gate accumulates the correctness checks of one run.
type gate struct {
	attempted, failed int
	errs              []string
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.errs) < 10 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// check records one served job: transport or status failure, or a
// body that differs from engine.Run.
func (g *gate) check(ctx context.Context, v *verifier, j job, s sample, body []byte) {
	var want [][]float64
	var err error
	if s.err == nil {
		want, err = v.want(ctx, j.req)
	}
	g.compare(j, s, body, want, err)
}

// compare records one served job against rows already computed.
func (g *gate) compare(j job, s sample, body []byte, want [][]float64, wantErr error) {
	g.attempted++
	switch {
	case s.err != nil:
		g.fail("job failed: %v", s.err)
	case wantErr != nil:
		g.fail("%v", wantErr)
	default:
		if err := compareBody(j.req, body, want); err != nil {
			g.fail("wrong answer: %v", err)
		}
	}
}

// require records a check that is not a job.
func (g *gate) require(ok bool, format string, args ...any) {
	if !ok {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

func (g *gate) correct() bool { return g.failed == 0 && len(g.errs) == 0 }

// compareBody checks a buffered or streamed answer against want.
func compareBody(jr server.JobRequest, body []byte, want [][]float64) error {
	rows, err := decodeRows(jr, body)
	if err != nil {
		return err
	}
	if len(rows) != len(jr.Gates) || len(want) != len(jr.Gates) {
		return fmt.Errorf("served %d rows, engine %d, request %d gates", len(rows), len(want), len(jr.Gates))
	}
	for i, r := range rows {
		if !sameBits([]float64{r.VG}, jr.Gates[i:i+1]) {
			return fmt.Errorf("row %d: vg %v, request %v", i, r.VG, jr.Gates[i])
		}
		if !sameBits(r.VDS, jr.Drains) {
			return fmt.Errorf("row %d: vds grid differs from the request", i)
		}
		if !sameBits(r.IDS, want[i]) {
			return fmt.Errorf("row %d (vg %v): served ids differ from engine.Run", i, r.VG)
		}
	}
	return nil
}

// decodeRows decodes the family of a buffered JobResponse, or the row
// frames of a streamed answer, which must arrive in order and end
// with exactly one done frame.
func decodeRows(jr server.JobRequest, body []byte) ([]server.Curve, error) {
	if !jr.Stream {
		var resp server.JobResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("decoding answer: %w", err)
		}
		if resp.Kind != jr.Kind {
			return nil, fmt.Errorf("answer kind %q, want %q", resp.Kind, jr.Kind)
		}
		return resp.Family, nil
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	var rows []server.Curve
	for i, line := range lines {
		var f server.StreamFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, fmt.Errorf("decoding frame %d: %w", i, err)
		}
		last := i == len(lines)-1
		switch {
		case f.Error != nil:
			return nil, fmt.Errorf("error frame: %s", f.Error.Error)
		case last && f.Done == nil:
			return nil, fmt.Errorf("stream ends without a done frame")
		case last:
			if f.Done.Kind != jr.Kind {
				return nil, fmt.Errorf("done kind %q, want %q", f.Done.Kind, jr.Kind)
			}
		case f.Row == nil:
			return nil, fmt.Errorf("frame %d is not a row", i)
		case f.Row.Index != len(rows) || f.Row.Ref:
			return nil, fmt.Errorf("frame %d carries row %d (ref %v)", i, f.Row.Index, f.Row.Ref)
		default:
			rows = append(rows, server.Curve{VG: f.Row.VG, VDS: f.Row.VDS, IDS: f.Row.IDS})
		}
	}
	return rows, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
