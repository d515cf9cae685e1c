package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
)

// runTrace is the -trace mode: it runs the traced slice of the evaluation
// grid (per-I/O span trees with deterministic sampling), writes one
// Perfetto-loadable trace_event file to path, and prints the per-cell
// summary with the top critical-path contributors.
func runTrace(path string, sample int, cfg experiments.Config) error {
	res, err := experiments.TraceSweep(cfg, sample)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println(res.Table())
	fmt.Printf("delibabench: wrote %s (%d cells, digest %016x)\n", path, len(res.Cells), res.Digest())
	fmt.Println("load the file in ui.perfetto.dev or inspect it with `dfxtool trace summary`")
	return nil
}
