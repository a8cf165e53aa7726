package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"resultdb/internal/db"
	"resultdb/internal/wire"
)

// golden is the expected outcome of one statement: the digest of the result
// re-encoded in the v1 wire format and, for PRESERVING statements, the row
// count of the client-side post-join.
type golden struct {
	Digest       string `json:"digest"`
	PostJoinRows int    `json:"postjoin_rows,omitempty"`
}

// oracle maps workload name and request name to the expected outcome.
type oracle map[string]map[string]golden

func goldenPath(benchDir string) string {
	return filepath.Join(benchDir, "testdata", "golden.json")
}

func loadOracle(benchDir string) (oracle, error) {
	raw, err := os.ReadFile(goldenPath(benchDir))
	if err != nil {
		return nil, fmt.Errorf("read golden digests (regenerate with -update-golden): %w", err)
	}
	var o oracle
	if err := json.Unmarshal(raw, &o); err != nil {
		return nil, fmt.Errorf("parse %s: %w", goldenPath(benchDir), err)
	}
	return o, nil
}

func digest(res *db.Result) string {
	sum := sha256.Sum256(wire.EncodeResult(res))
	return hex.EncodeToString(sum[:])
}

// check reports whether a response matches the golden outcome. pj is the
// post-joined set, nil when the statement ships no plan.
func (o oracle) check(w *workload, req request, res *db.Result, pj *db.ResultSet) bool {
	want, ok := o[w.name][req.name]
	if !ok || digest(res) != want.Digest {
		return false
	}
	if pj != nil && len(pj.Rows) != want.PostJoinRows {
		return false
	}
	return true
}

// updateGolden regenerates every digest from a serial, cache-off, in-process
// execution: the simplest configuration of the engine is the reference.
func updateGolden(benchDir string) error {
	o := oracle{}
	for _, w := range workloads() {
		cfg := db.DefaultConfig()
		cfg.Parallelism = 1
		d := db.Open(cfg)
		if err := w.load(d); err != nil {
			return fmt.Errorf("%s: load: %w", w.name, err)
		}
		sess := d.NewSession()
		o[w.name] = map[string]golden{}
		for _, req := range w.requests {
			res, err := sess.Exec(req.sql)
			if err != nil {
				return fmt.Errorf("%s %s: %w", w.name, req.name, err)
			}
			// Digest what a client would see: the result after a wire round
			// trip, which drops execution-side attachments.
			decoded, err := wire.DecodeResult(wire.EncodeResult(res))
			if err != nil {
				return fmt.Errorf("%s %s: decode: %w", w.name, req.name, err)
			}
			g := golden{Digest: digest(decoded)}
			if decoded.PostJoinPlan != nil {
				pj, err := db.ExecutePostJoinPlan(decoded)
				if err != nil {
					return fmt.Errorf("%s %s: post-join: %w", w.name, req.name, err)
				}
				g.PostJoinRows = len(pj.Rows)
			}
			o[w.name][req.name] = g
		}
	}
	raw, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(benchDir), append(raw, '\n'), 0o644)
}
