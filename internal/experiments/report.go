package experiments

import (
	"fmt"
	"io"
	"strings"
)

// WriteMarkdown renders a table as GitHub-flavoured markdown.
func (t Table) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	b.WriteString("\n")
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "> %s\n", n)
	}
	if len(t.Notes) > 0 {
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteReportHead writes a markdown report's title, the axes every
// experiment runs at, and the verdicts on the paper's claims, judged from
// the grid. It ends with the Experiments heading, so the tables' markdown
// follows directly.
func WriteReportHead(w io.Writer, g Grid) error {
	n := g.Config
	fmt.Fprintf(w, "# OD-RL reproduction report\n\n")
	fmt.Fprintf(w, "Configuration: %d cores, %.0f W budget, seed %d", n.Cores, n.BudgetW, n.Seed)
	if n.Quick {
		fmt.Fprintf(w, " (quick mode)")
	}
	fmt.Fprintf(w, ".\n\n## Claim verification\n\n")
	results, err := Claims(g)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "| claim | paper | measured | verdict |")
	fmt.Fprintln(w, "| --- | --- | --- | --- |")
	for _, r := range results {
		verdict := "PASS"
		if !r.Pass {
			verdict = "**FAIL**"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", r.ID, r.Claim, r.Measured, verdict)
	}
	_, err = fmt.Fprintf(w, "\n## Experiments\n\n")
	return err
}
