package exp

import (
	"fmt"
	"strings"

	"repro/internal/arch"
)

// barChart renders a labelled horizontal ASCII bar chart, the terminal
// stand-in for the paper's figures. Bars are scaled to the maximum value.
func barChart(title string, rows []barRow, width int) string {
	if width <= 0 {
		width = 48
	}
	var max float64
	labelW := 0
	for _, r := range rows {
		if r.Value > max {
			max = r.Value
		}
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	for _, r := range rows {
		n := 0
		if max > 0 {
			n = int(r.Value / max * float64(width))
		}
		fmt.Fprintf(&sb, "  %-*s %7.2f %s\n", labelW, r.Label, r.Value, strings.Repeat("█", n))
	}
	return sb.String()
}

type barRow struct {
	Label string
	Value float64
}

// Chart renders a SpeedupResult (Figures 5–7) as an ASCII chart of the
// per-scheme geomeans — a quick visual check that the ordering matches
// the paper's bars.
func (r *SpeedupResult) Chart() string {
	var rows []barRow
	for _, k := range arch.EvalKinds() {
		rows = append(rows, barRow{Label: k.String(), Value: r.GeoAll[k]})
	}
	return barChart(r.Title+" — geomean speedup over NVP", rows, 48)
}

// Chart renders the ablation variants side by side (RFOffice column).
func (r *AblationResult) Chart() string {
	rows := []barRow{
		{"full", r.Full[1]},
		{"single-buffer", r.SingleBuffer[1]},
		{"nvm-search", r.NVMSearch[1]},
		{"no-unroll", r.NoUnroll[1]},
		{"inline", r.Inline[1]},
	}
	return barChart("Ablation under RFOffice — geomean speedup over NVP", rows, 48)
}
