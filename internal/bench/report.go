package bench

import (
	"fmt"
	"os/exec"
	"runtime"
	"strings"
)

// Header records what a BENCH_*.json report was measured with: the
// commit under test, the Go toolchain, the machine's core count and the
// scheduler's GOMAXPROCS.
type Header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// NewHeader describes the running process. The commit is git's HEAD in
// the working directory, suffixed "+dirty" when tracked files differ
// from it, or "unknown" outside a git checkout.
func NewHeader() Header {
	commit := "unknown"
	if head, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(head))
		if dirty, _ := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); len(dirty) > 0 {
			commit += "+dirty"
		}
	}
	return Header{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// Table is one regenerated table or figure: a header, measured rows and
// optional per-row paper reference values for side-by-side comparison.
type Table struct {
	ID    string // e.g. "Table 6", "Figure 8"
	Title string
	Notes []string
	Head  []string
	Rows  [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends an explanatory note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Head))
	rows := append([][]string{t.Head}, t.Rows...)
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		for i, cell := range row {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(cell)
			}
			sb.WriteString(cell)
			if i < len(row)-1 {
				sb.WriteString(strings.Repeat(" ", pad+2))
			}
		}
		sb.WriteByte('\n')
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w + 2
			}
			sb.WriteString(strings.Repeat("-", total))
			sb.WriteByte('\n')
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}
