// Package cliutil holds the observability plumbing shared by the
// commands: the -stats/-trace/-jsonl/-explain/-cpuprofile/-memprofile
// per-run flag set, the -debug-addr process-lifetime tier (metrics
// registry, flight recorder, debug HTTP server), lazy recorder
// construction, pprof start/stop, and program input reading
// (including extraction from the examples' Go files).
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"beyondiv"
	"beyondiv/internal/obs"
	"beyondiv/internal/obs/debugserv"
	"beyondiv/internal/obs/metrics"
)

// ExitCode classifies an analysis failure for a command's exit status:
// 2 for a contained internal fault (a *beyondiv.Error carrying a panic
// stack — a bug in the analyzer, not in the input), 1 for everything
// else (syntax errors, resource-ceiling hits, I/O failures), 0 for
// nil.
func ExitCode(err error) int {
	if err == nil {
		return 0
	}
	var be *beyondiv.Error
	if errors.As(err, &be) && be.Stack != nil {
		return 2
	}
	return 1
}

// ParseFlags parses the command line under the commands' exit-code
// contract. The default flag set's ExitOnError exits 2 on a bad flag,
// but 2 is reserved for contained internal faults (see ExitCode) — a
// mistyped flag is an input error and must exit 1, while -h/-help is
// not an error at all and exits 0. Call instead of flag.Parse, after
// all flags are registered.
func ParseFlags(tool string) {
	flag.CommandLine.Init(tool, flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(1) // flag package already printed the error and usage
	}
}

// Report prints err prefixed with the tool name (and a contained
// fault's stack) without exiting, for batch tools that keep going
// after one input fails; it returns ExitCode(err).
func Report(tool string, err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	var be *beyondiv.Error
	if errors.As(err, &be) && be.Stack != nil {
		fmt.Fprintf(os.Stderr, "%s: internal fault contained; stack:\n%s", tool, be.Stack)
	}
	return ExitCode(err)
}

// Fatal prints err prefixed with the tool name and exits with a status
// that distinguishes failure classes (see ExitCode). Structured errors
// already render their phase and source position.
func Fatal(tool string, err error) {
	os.Exit(Report(tool, err))
}

// Telemetry bundles the observability flags of one command: the
// per-run tier (-stats/-trace/-jsonl, backed by an obs.Recorder) and
// the process-lifetime tier (-debug-addr, backed by a metrics
// registry, a flight recorder and the debugserv HTTP server).
// Register the flags with RegisterObsFlags before flag.Parse, call
// Start after it, thread the backends into the analysis with Apply
// (or Recorder/Registry/Flight individually), and Finish at the end.
type Telemetry struct {
	Stats      bool
	TracePath  string
	JSONLPath  string
	Explain    string
	CPUProfile string
	MemProfile string
	DebugAddr  string

	rec     *obs.Recorder
	reg     *metrics.Registry
	fl      *metrics.Flight
	srv     *debugserv.Server
	cpuFile *os.File
}

// flightRuns is the debug server's flight-recorder depth: the last 64
// analyses, with the last 16 failed ones retained separately.
const (
	flightRuns    = 64
	flightErrRuns = 16
)

// RegisterObsFlags installs the full observability flag set — the
// per-run telemetry flags plus -debug-addr — on the default flag set.
// This is the one place the commands' observability wiring lives;
// each main.go just calls this, then Start/Apply/Finish.
func (t *Telemetry) RegisterObsFlags() {
	flag.BoolVar(&t.Stats, "stats", false, "print phase timings and pipeline counters")
	flag.StringVar(&t.TracePath, "trace", "", "write a Chrome trace-event file (chrome://tracing, Perfetto) to `path`")
	flag.StringVar(&t.JSONLPath, "jsonl", "", "write spans, counters and provenance events as JSON lines to `path`")
	flag.StringVar(&t.Explain, "explain", "", "print the classification provenance chain of `var` (e.g. j, or the SSA version j3)")
	flag.StringVar(&t.CPUProfile, "cpuprofile", "", "write a CPU profile to `path`")
	flag.StringVar(&t.MemProfile, "memprofile", "", "write a heap profile to `path`")
	flag.StringVar(&t.DebugAddr, "debug-addr", "", "serve /metrics, /healthz, /lastruns and /debug/pprof on `addr` (e.g. localhost:6060) while the command runs")
}

// Recorder returns the recorder to thread through the pipeline: non-nil
// exactly when some flag needs a recording, nil (telemetry off at zero
// cost) otherwise.
func (t *Telemetry) Recorder() *obs.Recorder {
	if t.rec == nil && (t.Stats || t.TracePath != "" || t.JSONLPath != "") {
		t.rec = obs.New()
	}
	return t.rec
}

// Registry returns the process-lifetime metrics registry: non-nil
// exactly when -debug-addr asked for the debug server.
func (t *Telemetry) Registry() *metrics.Registry {
	if t.reg == nil && t.DebugAddr != "" {
		t.reg = metrics.NewRegistry()
	}
	return t.reg
}

// Flight returns the flight recorder behind /lastruns: non-nil exactly
// when -debug-addr asked for the debug server.
func (t *Telemetry) Flight() *metrics.Flight {
	if t.fl == nil && t.DebugAddr != "" {
		t.fl = metrics.NewFlight(flightRuns, flightErrRuns)
	}
	return t.fl
}

// Apply threads every observability backend the flags enabled into
// opts; with no observability flags set all three stay nil and the
// pipeline runs at full speed.
func (t *Telemetry) Apply(opts *beyondiv.Options) {
	opts.Obs = t.Recorder()
	opts.Metrics = t.Registry()
	opts.Flight = t.Flight()
}

// DebugURL returns "http://<addr>" of the running debug server, empty
// when none is serving.
func (t *Telemetry) DebugURL() string {
	if t.srv == nil {
		return ""
	}
	return "http://" + t.srv.Addr()
}

// Start begins CPU profiling and, when -debug-addr is set, the debug
// HTTP server (announced on stderr, since the bound port matters for
// addresses like ":0").
func (t *Telemetry) Start() error {
	if t.DebugAddr != "" && t.srv == nil {
		srv, err := debugserv.Serve(t.DebugAddr, t.Registry(), t.Flight())
		if err != nil {
			return err
		}
		t.srv = srv
		fmt.Fprintf(os.Stderr, "debug server listening on http://%s\n", srv.Addr())
	}
	if t.CPUProfile == "" {
		return nil
	}
	f, err := os.Create(t.CPUProfile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.cpuFile = f
	return nil
}

// Finish stops profiling, shuts the debug server down, and renders
// the recording: the -stats text report to w, and the -trace / -jsonl
// files.
func (t *Telemetry) Finish(w io.Writer) error {
	if t.srv != nil {
		if err := t.srv.Close(); err != nil {
			return err
		}
		t.srv = nil
	}
	if t.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := t.cpuFile.Close(); err != nil {
			return err
		}
		t.cpuFile = nil
	}
	if t.MemProfile != "" {
		f, err := os.Create(t.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if t.rec == nil {
		return nil
	}
	if t.Stats {
		if err := t.rec.WriteText(w, true); err != nil {
			return err
		}
	}
	if t.TracePath != "" {
		if err := writeFileWith(t.TracePath, t.rec.WriteChromeTrace); err != nil {
			return err
		}
	}
	if t.JSONLPath != "" {
		if err := writeFileWith(t.JSONLPath, t.rec.WriteJSONL); err != nil {
			return err
		}
	}
	return nil
}

func writeFileWith(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// AnalyzeSources analyzes command-line sources through the engine: a
// single source runs as a plain Analyze (so -stats keeps the familiar
// one-"analyze" span shape), several run as one concurrent batch over
// opts.Jobs workers. Results come back in input order; a failing
// source carries its own error without affecting the rest. With a
// CacheDir it returns once every store write is on disk, so -stats
// reports them and the process may exit.
func AnalyzeSources(srcs []Source, opts beyondiv.Options) []beyondiv.BatchResult {
	an := beyondiv.NewAnalyzer(opts)
	defer an.Flush()
	if len(srcs) == 1 {
		prog, err := an.Analyze(srcs[0].Text)
		return []beyondiv.BatchResult{{Source: srcs[0].Text, Program: prog, Err: err}}
	}
	texts := make([]string, len(srcs))
	for i, s := range srcs {
		texts[i] = s.Text
	}
	return an.AnalyzeAll(texts)
}

// OptimizeSources runs the engine's analyze-transform-validate pipeline
// over command-line sources, mirroring AnalyzeSources' shape: one
// source runs inline, several run as a concurrent batch over opts.Jobs
// workers, and results come back in input order with per-source errors.
// Like AnalyzeSources it returns once every store write is on disk.
func OptimizeSources(srcs []Source, opts beyondiv.Options) []beyondiv.OptimizeBatchResult {
	an := beyondiv.NewAnalyzer(opts)
	defer an.Flush()
	if len(srcs) == 1 {
		res, err := an.Optimize(srcs[0].Text)
		return []beyondiv.OptimizeBatchResult{{Source: srcs[0].Text, Result: res, Err: err}}
	}
	texts := make([]string, len(srcs))
	for i, s := range srcs {
		texts[i] = s.Text
	}
	return an.OptimizeAll(texts)
}

// Source is one program resolved from the command line: the text to
// analyze and the path it came from, for batch report headers.
type Source struct {
	Path string // display name; "<stdin>" when read from standard input
	Text string
}

// ReadPrograms resolves a command's positional arguments into the
// programs to analyze: no arguments reads one program from standard
// input; each argument may be a program file, an examples-style .go
// file (first backtick literal extracted), or a directory, walked
// recursively in lexical order for .go files with embedded programs
// (other .go files under it are skipped; a directory yielding no
// programs is an error).
func ReadPrograms(args []string) ([]Source, error) {
	if len(args) == 0 {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, err
		}
		return []Source{{Path: "<stdin>", Text: string(b)}}, nil
	}
	var out []Source
	for _, arg := range args {
		fi, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			text, err := ReadProgram(arg)
			if err != nil {
				return nil, err
			}
			out = append(out, Source{Path: arg, Text: text})
			continue
		}
		found := 0
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			text, err := ReadProgram(path)
			if err != nil {
				return nil // a .go file with no embedded program
			}
			out = append(out, Source{Path: path, Text: text})
			found++
			return nil
		})
		if err != nil {
			return nil, err
		}
		if found == 0 {
			return nil, fmt.Errorf("%s: no .go files with embedded programs found", arg)
		}
	}
	return out, nil
}

// ReadProgram reads a mini-language program: from standard input when
// path is empty, from the file otherwise. A .go file (the examples/
// directory embeds each program in a backtick string) yields its first
// backtick raw-string literal, so
//
//	bivopt -stats examples/triangular/main.go
//
// analyzes the program the example embeds.
func ReadProgram(path string) (string, error) {
	if path == "" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	src := string(b)
	if strings.HasSuffix(path, ".go") {
		start := rawStringStart(src)
		if start < 0 {
			return "", fmt.Errorf("%s: no backtick program literal found", path)
		}
		end := strings.IndexByte(src[start+1:], '`')
		if end < 0 {
			return "", fmt.Errorf("%s: unterminated backtick literal", path)
		}
		return src[start+1 : start+1+end], nil
	}
	return src, nil
}

// rawStringStart finds the opening backtick of the first raw string
// literal in Go source, ignoring backticks inside // comments (doc
// comments quote mini-language snippets), or -1. Raw strings cannot
// contain backticks, so no deeper lexing is needed.
func rawStringStart(src string) int {
	inComment := false
	for i := 0; i < len(src); i++ {
		switch {
		case inComment:
			if src[i] == '\n' {
				inComment = false
			}
		case src[i] == '/' && i+1 < len(src) && src[i+1] == '/':
			inComment = true
		case src[i] == '`':
			return i
		}
	}
	return -1
}
