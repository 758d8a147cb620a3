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

// WriteReportHead writes a markdown report's title and the axes every
// experiment runs at. The tables' markdown follows directly, the claim
// verdicts first when the report holds CLAIMS.
func WriteReportHead(w io.Writer, cfg Config) error {
	n := cfg.Normalized()
	fmt.Fprintf(w, "# OD-RL reproduction report\n\n")
	fmt.Fprintf(w, "Configuration: %d cores, %.0f W budget, seed %d", n.Cores, n.BudgetW, n.Seed)
	if n.Quick {
		fmt.Fprintf(w, " (quick mode)")
	}
	_, err := fmt.Fprintf(w, ".\n\n")
	return err
}
