package cliutil

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"beyondiv"
)

// WatchFlags is the -watch flag pair of the corpus commands: poll the
// argument files/directories for edits and re-analyze only what
// changed, leaning on the analyzer's caches (in-memory and, with
// -cache-dir, on disk) so an unchanged corpus costs nothing.
type WatchFlags struct {
	Watch    bool
	Interval time.Duration
}

// Register installs -watch and -watch-interval on the default flag set.
func (w *WatchFlags) Register() {
	flag.BoolVar(&w.Watch, "watch", false,
		"keep running: poll the input files/directories and re-analyze changed programs")
	flag.DurationVar(&w.Interval, "watch-interval", 500*time.Millisecond,
		"how often -watch polls for changes")
}

// WatchConfig tunes Watch beyond the flag pair; the zero value is
// usable (500ms interval, stderr round notes, run until interrupted).
type WatchConfig struct {
	// Interval between polling rounds; <= 0 means 500ms.
	Interval time.Duration
	// Out receives the per-round change notes; nil means os.Stderr.
	Out io.Writer
	// AfterRound, when non-nil, runs after every round with the round
	// number (1-based) and how many programs were re-analyzed; returning
	// false stops the watch cleanly. Tests use it to bound the loop.
	AfterRound func(round, changed int) bool
}

// watchState fingerprints one file between rounds: cheap stat identity
// first (mtime + size), content hash to confirm — a formatting-only
// save still changes the content hash and re-renders, while a touch
// with identical bytes does not re-analyze.
type watchState struct {
	mtime time.Time
	size  int64
	sum   [sha256.Size]byte
	text  bool // sum is valid (the file held a readable program)
}

// Watch is the corpus re-analyze loop behind the commands' -watch
// flag: resolve args to program files (the same file/.go/directory
// rules as ReadPrograms), analyze everything once, then poll — files
// whose content changed (and files that appeared) are re-analyzed and
// handed to render; unchanged files are never re-read past a stat.
// The analyzer is built once, so opts' caches persist across rounds:
// with a CacheDir, even a restarted watch starts warm.
//
// render runs for every analyzed program, changed files only after the
// first round. Watch returns on a resolution error or when
// cfg.AfterRound asks it to stop; otherwise it runs until the process
// is interrupted.
func Watch(args []string, opts beyondiv.Options, cfg WatchConfig,
	render func(src Source, prog *beyondiv.Program, err error)) error {
	if len(args) == 0 {
		return errors.New("watch mode needs file or directory arguments (standard input cannot be watched)")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Out == nil {
		cfg.Out = os.Stderr
	}
	an := beyondiv.NewAnalyzer(opts)
	seen := make(map[string]watchState)
	for round := 1; ; round++ {
		paths, err := watchPaths(args)
		if err != nil {
			return err
		}
		changed := 0
		for _, path := range paths {
			fi, statErr := os.Stat(path)
			if statErr != nil {
				delete(seen, path) // vanished mid-round; rediscovered on return
				continue
			}
			prev, known := seen[path]
			if known && fi.ModTime().Equal(prev.mtime) && fi.Size() == prev.size {
				continue // stat-identical: not even re-read
			}
			cur := watchState{mtime: fi.ModTime(), size: fi.Size()}
			text, readErr := ReadProgram(path)
			if readErr != nil {
				// Unreadable or (for .go files) no embedded program:
				// remember the stat so it is not re-read every round.
				seen[path] = cur
				continue
			}
			cur.sum, cur.text = sha256.Sum256([]byte(text)), true
			if known && prev.text && prev.sum == cur.sum {
				seen[path] = cur // touched, content unchanged: no re-analysis
				continue
			}
			seen[path] = cur
			changed++
			prog, aerr := an.Analyze(text)
			render(Source{Path: path, Text: text}, prog, aerr)
		}
		an.Flush() // a round ends with its store writes on disk
		alive := make(map[string]bool, len(paths))
		for _, p := range paths {
			alive[p] = true
		}
		for p := range seen {
			if !alive[p] {
				delete(seen, p)
			}
		}
		if round > 1 && changed > 0 {
			fmt.Fprintf(cfg.Out, "watch: round %d re-analyzed %d of %d programs\n", round, changed, len(paths))
		}
		if cfg.AfterRound != nil && !cfg.AfterRound(round, changed) {
			return nil
		}
		time.Sleep(cfg.Interval)
	}
}

// watchPaths resolves watch arguments to the current list of program
// files, sorted: plain files as themselves, directories walked for .go
// files (the examples layout, matching ReadPrograms). A path that does
// not exist right now is skipped, not fatal — watch survives files
// being deleted and recreated.
func watchPaths(args []string) ([]string, error) {
	var out []string
	for _, arg := range args {
		fi, err := os.Stat(arg)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, err
		}
		if !fi.IsDir() {
			out = append(out, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, werr error) error {
			if werr != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			out = append(out, path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}
