package metrics

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table renders aligned plain-text tables for the experiment harnesses: the
// delibabench tool prints each paper table/figure as one of these.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the formatted cell at (row, col).
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// MarshalJSON encodes the table as its title, headers and formatted rows.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}{t.Title, t.headers, t.rows})
}

// String renders the table with a title line, a header row, a separator, and
// aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	total += 2 * (len(widths) - 1)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
