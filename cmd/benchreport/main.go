// Command benchreport regenerates the paper's tables and figures as
// text reports. With no flags it runs every experiment; -exp selects
// one; -json emits a machine-readable array of {experiment, text}
// records so the Makefile's bench target can archive the perf
// trajectory. -kernels instead records the screening engine's hot-path
// performance trajectory — for PR 6, f64-vs-f32 pairs for the packed
// panel GEMM, the lowered Conv3D forward, the Coherent PredictBatch
// and the distributed RunJob; `make bench` archives its JSON form as
// BENCH_6.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"deepfusion/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")
	exp := flag.String("exp", "all", "experiment: fig1|table1|table2|table3|table4|table5|table6|table7|table8|fig2|fig4|fig5|fig6|fig7|hitrate|all")
	full := flag.Bool("full", false, "use the full benchmark budget (minutes) instead of the smoke budget")
	asJSON := flag.Bool("json", false, "emit a JSON array of {experiment, text} records instead of plain text")
	kernels := flag.Bool("kernels", false, "benchmark the engine's f64 reference vs f32 fast-path kernels (MatMulPacked, Conv3DForward, Conv3DScatter, PredictBatch, RunJob) instead of the paper experiments")
	serveBench := flag.Bool("serve", false, "benchmark the screening service (warm engine + cross-request batcher) against the solo RunJob baseline instead of the paper experiments")
	integrity := flag.Bool("integrity", false, "benchmark shard encode/decode at h5lite v1 (no checksums) vs v2 (CRC32C sections + trailer) instead of the paper experiments")
	flag.Parse()

	if *integrity {
		rep := runIntegrityReport()
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				log.Fatal(err)
			}
			return
		}
		printIntegrityReport(rep)
		return
	}
	if *serveBench {
		rep := runServeReport()
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				log.Fatal(err)
			}
			return
		}
		printServeReport(rep)
		return
	}
	if *kernels {
		rep := runKernelReport()
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				log.Fatal(err)
			}
			return
		}
		printKernelReport(rep)
		return
	}

	s := experiments.Smoke
	if *full {
		s = experiments.Full
	}
	runners := []struct {
		name string
		run  func() string
	}{
		{"fig1", func() string { return experiments.Figure1(s) }},
		{"table1", func() string { return experiments.Table1() }},
		{"table2", func() string { return experiments.Table2SGCNN(s).Text }},
		{"table3", func() string { return experiments.Table3CNN3D(s).Text }},
		{"table4", func() string { return experiments.Table4MidFusion(s).Text }},
		{"table5", func() string { return experiments.Table5Coherent(s).Text }},
		{"table6", func() string { return experiments.Table6(s).Text }},
		{"fig2", func() string { return experiments.Figure2(s).Text }},
		{"table7", func() string { return experiments.Table7().Text }},
		{"fig4", func() string { return experiments.Figure4().Text }},
		{"fig5", func() string { return experiments.Figure5(s).Text }},
		{"table8", func() string { return experiments.Table8(s).Text }},
		{"fig6", func() string { return experiments.Figure6(s).Text }},
		{"fig7", func() string { return experiments.Figure7(s).Text }},
		{"hitrate", func() string { return experiments.HitRate(s).Text }},
	}
	want := strings.ToLower(*exp)
	found := false
	type record struct {
		Experiment string `json:"experiment"`
		Text       string `json:"text"`
	}
	var records []record
	for _, r := range runners {
		if want != "all" && r.name != want {
			continue
		}
		found = true
		if *asJSON {
			records = append(records, record{Experiment: r.name, Text: r.run()})
		} else {
			fmt.Println(r.run())
		}
	}
	if !found {
		log.Fatalf("unknown experiment %q", *exp)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			log.Fatal(err)
		}
	}
}
