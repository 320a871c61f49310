package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Render writes a human-readable version of the report to w: tables as
// aligned text, series as compact sparkline-style rows plus key points.
func (r *Report) Render(w io.Writer) error {
	fmt.Fprintf(w, "=== %s: %s ===\n", r.ID, r.Caption)
	for _, note := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", note)
	}
	for _, t := range r.Tables {
		fmt.Fprintf(w, "\n%s\n", t.Title)
		widths := make([]int, len(t.Header))
		for i, h := range t.Header {
			widths[i] = len(h)
		}
		for _, row := range t.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		printRow := func(cells []string) {
			for i, c := range cells {
				if i < len(widths) {
					fmt.Fprintf(w, "  %-*s", widths[i], c)
				} else {
					fmt.Fprintf(w, "  %s", c)
				}
			}
			fmt.Fprintln(w)
		}
		printRow(t.Header)
		printRow(dashes(widths))
		for _, row := range t.Rows {
			printRow(row)
		}
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "\n%s  [%s vs %s]\n", s.Name, s.YLabel, s.XLabel)
		fmt.Fprintf(w, "  %s\n", sparkline(s.Y))
		if n := len(s.X); n > 0 {
			fmt.Fprintf(w, "  start %.2f @ %.0f | mid %.2f | end %.2f @ %.0f\n",
				s.Y[0], s.X[0], s.Y[n/2], s.Y[n-1], s.X[n-1])
		}
	}
	fmt.Fprintln(w)
	return nil
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, n := range widths {
		out[i] = strings.Repeat("-", n)
	}
	return out
}

// sparkline draws a series with eight-level block characters.
func sparkline(values []float64) string {
	if len(values) == 0 {
		return "(empty)"
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * 7.999)
		}
		if idx < 0 {
			idx = 0
		}
		if idx > 7 {
			idx = 7
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

// WriteCSV writes every series and table of the report as CSV files into
// dir (created if needed). Series files have columns x,y; table files
// mirror the table layout. File names are derived from the report ID and
// the series/table name.
func (r *Report) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range r.Series {
		rows := [][]string{{s.XLabel, s.YLabel}}
		for i := range s.X {
			rows = append(rows, []string{
				strconv.FormatFloat(s.X[i], 'f', -1, 64),
				strconv.FormatFloat(s.Y[i], 'f', -1, 64),
			})
		}
		if err := writeCSVFile(filepath.Join(dir, csvName(r.ID, s.Name)), rows); err != nil {
			return err
		}
	}
	for _, t := range r.Tables {
		rows := append([][]string{t.Header}, t.Rows...)
		if err := writeCSVFile(filepath.Join(dir, csvName(r.ID, t.Title)), rows); err != nil {
			return err
		}
	}
	return nil
}

// writeCSVFile writes rows, header first, as one CSV file.
func writeCSVFile(path string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	// WriteAll flushes and reports the first write or flush error.
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// csvName builds a filesystem-safe file name.
func csvName(id, name string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, name)
	for strings.Contains(clean, "--") {
		clean = strings.ReplaceAll(clean, "--", "-")
	}
	clean = strings.Trim(clean, "-")
	return id + "_" + clean + ".csv"
}
