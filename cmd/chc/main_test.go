package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memhier/internal/server"
)

// transcripts pins every subcommand to the behaviour of the binary it
// replaced (chc-model, chc-sim, ... chc-sweep). testdata/transcripts holds
// each case's stdout and stderr as those binaries printed them at the
// commit before the fold, invoked as "chc-<subcommand> <args>". A case
// must reproduce stdout byte for byte, stderr apart from the
// "chc-<subcommand>" → "chc <subcommand>" spelling, and the exit status.
//
// Cases run in order in one temporary directory: the trace_in_* cases read
// the traces trace_fft4_out and trace_fft_gzip write. ADDR stands for a
// fresh in-process server's URL.
var transcripts = []struct {
	name string
	cmd  string
	exit int
}{
	{"model_c8_FFT", "model -config C8 -workload FFT", 0},
	{"model_c8_fft_measured", "model -config C8 -workload fft -measured", 0},
	{"model_ws_custom", "model -kind ws -N 4 -n 1 -cache 256KB -mem 64MB -net 100 -workload Radix", 0},
	{"model_smp_levels", "model -kind smp -n 4 -levels 32KB@4,1MB@14,4MB@44 -workload LU", 0},
	{"model_ws_one_level", "model -kind ws -N 2 -levels 512KB -net atm -workload EDGE", 0},
	{"model_csmp_tpcc", "model -kind csmp -N 2 -n 4 -cache 1MB -mem 256MB -net atm -workload TPC-C -delta 0.2", 0},
	{"model_workload_file", "model -config C4 -workload-file testdata/workload.json", 0},
	{"model_no_platform", "model -workload FFT", 1},
	{"model_bad_kind", "model -kind numa -workload FFT", 1},
	{"model_bad_size", "model -kind ws -cache 12QB", 1},
	{"model_bad_levels", "model -kind ws -levels 32KB@x", 1},
	{"model_negative_N", "model -kind ws -N -3", 1},
	{"model_unknown_config", "model -config C99", 1},
	{"model_unknown_workload", "model -config C8 -workload nope", 1},
	{"model_missing_workload_file", "model -config C8 -workload-file testdata/missing.json", 1},
	{"model_bad_flag", "model -bogus", 2},
	{"model_help", "model -h", 0},
	{"sim_c8_fft", "sim -config C8 -workload fft", 0},
	{"sim_c8_radix_div16", "sim -config C8 -workload radix -divisor 16", 0},
	{"sim_c1_edge_paper", "sim -config C1 -workload edge -paper-scale", 0},
	{"sim_c8_fft_stream", "sim -config C8 -workload fft -stream", 0},
	{"sim_c11_lu_phases", "sim -config C11 -workload lu -divisor 16 -phases", 0},
	{"sim_modern_fft", "sim -config modern-2s-server -workload fft", 0},
	{"sim_divisor_zero", "sim -divisor 0", 1},
	{"sim_divisor_negative", "sim -divisor -1", 1},
	{"sim_unknown_config", "sim -config C99", 1},
	{"sim_unknown_workload", "sim -workload nope", 1},
	{"sim_help", "sim -h", 0},
	{"fit_fft", "fit -workload fft", 0},
	{"fit_radix_line64", "fit -workload radix -line 64", 0},
	{"fit_lu_paper", "fit -workload lu -paper-scale", 0},
	{"fit_edge_paper", "fit -workload edge -paper-scale", 0},
	{"fit_edge_save", "fit -workload edge -save trace.bin", 0},
	{"fit_unknown_workload", "fit -workload nope", 1},
	{"fit_help", "fit -h", 0},
	{"opt_fft", "opt -budget 5000 -workload FFT", 0},
	{"opt_radix_top10", "opt -budget 20000 -workload Radix -top 10", 0},
	{"opt_upgrade_edge", "opt -upgrade -config C7 -budget 2000 -workload EDGE", 0},
	{"opt_tpcc", "opt -budget 8000 -workload TPC-C -delta 0.1", 0},
	{"opt_workload_file", "opt -budget 8000 -workload-file testdata/workload.json -top 3", 0},
	{"opt_upgrade_unknown_config", "opt -upgrade -config C99 -budget 2000", 1},
	{"opt_help", "opt -h", 0},
	{"advisor_radix", "advisor -budget 5000 -workload Radix", 0},
	{"advisor_radix_measured", "advisor -budget 8000 -workload radix -measured", 0},
	{"advisor_tpcc_top8", "advisor -budget 20000 -workload TPC-C -top 8", 0},
	{"advisor_workload_file", "advisor -budget 6000 -workload-file testdata/workload.json", 0},
	{"advisor_unknown_workload", "advisor -workload nope", 1},
	{"advisor_help", "advisor -h", 0},
	{"compare_c8_c10", "compare -a C8 -b C10", 0},
	{"compare_c5_c11_radix", "compare -a C5 -b C11 -workload Radix", 0},
	{"compare_unknown_config", "compare -a C99", 1},
	{"compare_help", "compare -h", 0},
	{"trace_fft4_out", "trace -workload fft -nproc 4 -out fft4.trace", 0},
	{"trace_in_stats", "trace -in fft4.trace -stats", 0},
	{"trace_in_sharing", "trace -in fft4.trace -sharing -per-node 2", 0},
	{"trace_radix_distances", "trace -workload radix -nproc 1 -distances", 0},
	{"trace_fft_gzip", "trace -workload fft -nproc 2 -out fft2.trace.gz -gzip -stats=false", 0},
	{"trace_in_gzip", "trace -in fft2.trace.gz -sharing -distances", 0},
	{"trace_edge_paper", "trace -workload EDGE -paper-scale -nproc 2", 0},
	{"trace_per_node_zero", "trace -workload fft -nproc 2 -sharing -per-node 0", 1},
	{"trace_missing_in", "trace -in missing.trace", 1},
	{"trace_unknown_workload", "trace -workload nope", 1},
	{"trace_bare", "trace", 2},
	{"trace_help", "trace -h", 0},
	{"repro_table1", "repro -table 1", 0},
	{"repro_table2", "repro -table 2", 0},
	{"repro_table3", "repro -table 3", 0},
	{"repro_table4", "repro -table 4", 0},
	{"repro_table5", "repro -table 5", 0},
	{"repro_table9", "repro -table 9", 1},
	{"repro_figure2", "repro -figure 2", 0},
	{"repro_figure2_csv", "repro -figure 2 -csv", 0},
	{"repro_figure2_chart", "repro -figure 2 -chart", 0},
	{"repro_figure3_div16", "repro -figure 3 -divisor 16", 0},
	{"repro_figure4", "repro -figure 4", 0},
	{"repro_figure7", "repro -figure 7", 1},
	{"repro_case1", "repro -case 1", 0},
	{"repro_case2", "repro -case 2", 0},
	{"repro_case3", "repro -case 3", 0},
	{"repro_case_fft4x", "repro -case fft4x", 0},
	{"repro_case_principles", "repro -case principles", 0},
	{"repro_case_modern", "repro -case modern", 0},
	{"repro_case_map", "repro -case map", 0},
	{"repro_case_speedgap", "repro -case speedgap", 0},
	{"repro_case_sizescaling", "repro -case sizescaling", 0},
	{"repro_case1_delta", "repro -case 1 -delta 0.2", 0},
	{"repro_case_unknown", "repro -case nope", 1},
	{"repro_calibrate", "repro -calibrate", 0},
	{"repro_parallel_zero", "repro -parallel 0", 1},
	{"repro_bare", "repro", 2},
	{"repro_help", "repro -h", 0},
	{"sweep_default", "sweep -addr ADDR", 0},
	{"sweep_budget_range", "sweep -addr ADDR -configs C1-C15 -workloads fft,lu,radix -budgets 2000:20000:2000", 0},
	{"sweep_brute_ndjson", "sweep -addr ADDR -budgets 5000,8000,20000 -brute -ndjson", 0},
	{"sweep_unknown_workload", "sweep -addr ADDR -configs C2 -workloads fft,nope -budgets=", 1},
	{"sweep_point_error", "sweep -addr ADDR -configs modern-2s-server -workloads tpcc -budgets 1", 2},
	{"sweep_bad_budgets", "sweep -addr ADDR -budgets 9:1:1", 1},
	{"sweep_backwards_range", "sweep -addr ADDR -configs C9-C3", 1},
	{"sweep_help", "sweep -h", 0},
}

// slowTranscripts keep TestTranscripts under 5 s in -short mode, which
// skips them. The first two take seconds each; the figure 2 and 4 tables
// take the path figure 3's case pins, and the golden artifact digests
// pin their bytes as well.
var slowTranscripts = map[string]bool{
	"fit_lu_paper": true, "repro_calibrate": true, "repro_figure2": true, "repro_figure4": true,
}

func TestTranscripts(t *testing.T) {
	golden, err := filepath.Abs(filepath.Join("testdata", "transcripts"))
	if err != nil {
		t.Fatal(err)
	}
	chdirTemp(t)
	for _, tc := range transcripts {
		t.Run(tc.name, func(t *testing.T) {
			if slowTranscripts[tc.name] && testing.Short() {
				t.Skip("slow transcript")
			}
			args := strings.Fields(tc.cmd)
			if args[0] == "sweep" {
				addr := startServer(t)
				for i, a := range args {
					if a == "ADDR" {
						args[i] = addr
					}
				}
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != tc.exit {
				t.Errorf("exit status %d, want %d; stderr:\n%s", code, tc.exit, &stderr)
			}
			wantOut := readGolden(t, filepath.Join(golden, tc.name+".stdout"))
			if got := stdout.String(); got != wantOut {
				t.Errorf("stdout differs from the transcript\n--- got\n%s--- want\n%s", got, wantOut)
			}
			sub := args[0]
			wantErr := strings.ReplaceAll(readGolden(t, filepath.Join(golden, tc.name+".stderr")), "chc-"+sub+":", "chc "+sub+":")
			if got := stderr.String(); got != wantErr {
				t.Errorf("stderr differs from the transcript\n--- got\n%s--- want\n%s", got, wantErr)
			}
		})
	}
}

// readGolden returns a transcript file's contents; a missing file is an
// empty stream.
func readGolden(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return string(b)
}

// chdirTemp moves the test into a temporary directory that sees the
// package's testdata, so relative paths in the cases resolve and written
// files land outside the source tree.
func chdirTemp(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Symlink(filepath.Join(wd, "testdata"), filepath.Join(dir, "testdata")); err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// startServer serves a fresh prediction service for one test and returns
// its base URL.
func startServer(t *testing.T) string {
	t.Helper()
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

// TestErrorPaths checks that a bad command line fails with one
// "chc <subcommand>:" line on stderr and the old binary's exit status, and
// that a missing or unknown subcommand exits 2 with the subcommand list.
func TestErrorPaths(t *testing.T) {
	for _, tc := range []struct {
		args []string
		exit int
	}{
		{[]string{"repro", "-parallel", "0"}, 1},
		{[]string{"sim", "-divisor", "0"}, 1},
		{[]string{"sim", "-divisor", "-1"}, 1},
		{[]string{"sim", "-config", "C99"}, 1},
		{[]string{"model", "-config", "C99"}, 1},
		{[]string{"sim", "-workload", "nope"}, 1},
		{[]string{"model", "-workload", "nope"}, 1},
		{[]string{"opt", "-workload", "nope"}, 1},
		{[]string{"compare", "-workload", "nope"}, 1},
		{[]string{"model", "-kind", "ws", "-N", "-3"}, 1},
		{[]string{"trace", "-workload", "fft", "-nproc", "2", "-sharing", "-per-node", "0"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
		prefix := "chc " + tc.args[0] + ": "
		if code != tc.exit || len(lines) != 1 || !strings.HasPrefix(lines[0], prefix) {
			t.Errorf("chc %s: exit %d, stderr %q; want exit %d and one %q line",
				strings.Join(tc.args, " "), code, stderr.String(), tc.exit, prefix)
		}
	}

	for _, args := range [][]string{nil, {"frob"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("chc %v: exit %d, want 2", args, code)
		}
		for _, sc := range subcommands {
			if !strings.Contains(stderr.String(), "  "+sc.name+" ") {
				t.Errorf("chc %v: stderr does not list %q:\n%s", args, sc.name, &stderr)
			}
		}
	}
}

// TestWorkloadSpelling checks that every subcommand taking a paper
// workload accepts the lowercase names and the TPC-C aliases, printing
// exactly what the canonical name prints.
func TestWorkloadSpelling(t *testing.T) {
	spellings := map[string][]string{
		"FFT":   {"fft", "Fft"},
		"Radix": {"radix", "RADIX"},
		"TPC-C": {"tpcc", "tpc-c", "TPCC"},
	}
	for _, cmd := range [][]string{
		{"model", "-config", "C8"},
		{"opt", "-budget", "5000"},
		{"advisor", "-budget", "5000"},
		{"compare", "-a", "C8", "-b", "C10"},
	} {
		output := func(name string) string {
			var stdout, stderr bytes.Buffer
			args := append(append([]string(nil), cmd...), "-workload", name)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("chc %s: exit %d: %s", strings.Join(args, " "), code, &stderr)
			}
			return stdout.String()
		}
		for canonical, aliases := range spellings {
			want := output(canonical)
			for _, alias := range aliases {
				if got := output(alias); got != want {
					t.Errorf("chc %s -workload %s differs from -workload %s:\n%s\nwant:\n%s",
						strings.Join(cmd, " "), alias, canonical, got, want)
				}
			}
		}
	}
}

func TestCheckSharingGroups(t *testing.T) {
	tests := []struct {
		cpus, perNode int
		ok            bool
	}{
		{1, 1, true},
		{64, 1, true},
		{65, 1, false}, // machine 64 would alias machine 0
		{65, 2, true},
		{128, 2, true},
		{129, 2, false},
		{4, 8, true},
		{4, 0, false},
		{4, -1, false},
	}
	for _, tc := range tests {
		err := checkSharingGroups(tc.cpus, tc.perNode)
		if (err == nil) != tc.ok {
			t.Errorf("checkSharingGroups(%d, %d) = %v, want ok=%v", tc.cpus, tc.perNode, err, tc.ok)
		}
	}
}
