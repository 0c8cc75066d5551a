package core

import (
	"strings"
	"testing"

	"scshare/internal/approx"
	"scshare/internal/cloud"
	"scshare/internal/market"
)

// containsWarning reports whether any warning mentions every fragment.
func containsWarning(warnings []string, fragments ...string) bool {
	for _, w := range warnings {
		all := true
		for _, f := range fragments {
			if !strings.Contains(w, f) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func TestDiagnose(t *testing.T) {
	// conv is a healthy converged point: every participating SC gains utility.
	conv := func(ratio float64, shares ...int) SweepPoint {
		us := make([]float64, len(shares))
		for i, s := range shares {
			if s > 0 {
				us[i] = 0.25
			}
		}
		return SweepPoint{Ratio: ratio, Shares: shares, Utilities: us, Converged: true}
	}
	dead := func(ratio float64, shares ...int) SweepPoint {
		return SweepPoint{Ratio: ratio, Shares: shares}
	}
	tests := []struct {
		name string
		pts  []SweepPoint
		want [][]string // fragments; one inner slice per expected warning
	}{
		{
			name: "empty sweep",
			pts:  nil,
			want: [][]string{{"no price points"}},
		},
		{
			name: "healthy sweep",
			pts:  []SweepPoint{conv(0.2, 1, 0), conv(0.8, 2, 1)},
			want: nil,
		},
		{
			name: "one dead market",
			pts:  []SweepPoint{conv(0.2, 1, 0), dead(0.5, 0, 0), conv(0.8, 2, 1)},
			want: [][]string{{"dead market", "0.5"}},
		},
		{
			name: "several dead markets listed by ratio",
			pts:  []SweepPoint{dead(0.2, 0, 0), conv(0.5, 1, 1), dead(0.8, 0, 0)},
			want: [][]string{{"dead market", "0.2, 0.8"}},
		},
		{
			name: "nothing converged",
			pts:  []SweepPoint{dead(0.2, 1, 0), dead(0.8, 0, 0)},
			want: [][]string{{"no price point converged", "2 of 2"}},
		},
		{
			name: "nobody ever participates",
			pts:  []SweepPoint{conv(0.2, 0, 0), conv(0.8, 0, 0)},
			want: [][]string{{"no SC shares any VM"}},
		},
		{
			name: "dead everywhere reports only the convergence failure",
			pts:  []SweepPoint{dead(0.2, 0, 0), dead(0.8, 0, 0)},
			want: [][]string{{"no price point converged"}},
		},
		{
			name: "participation without utility",
			pts: []SweepPoint{
				{Ratio: 0.2, Shares: []int{1, 0}, Utilities: []float64{0, 0}, Converged: true},
				{Ratio: 0.8, Shares: []int{1, 1}, Utilities: []float64{0, 0}, Converged: true},
			},
			want: [][]string{{"indifference point"}},
		},
		{
			name: "participation with utility is healthy",
			pts: []SweepPoint{
				{Ratio: 0.2, Shares: []int{1, 0}, Utilities: []float64{0.3, 0}, Converged: true},
			},
			want: nil,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Diagnose(tc.pts)
			if len(got) != len(tc.want) {
				t.Fatalf("Diagnose returned %d warning(s) %q, want %d", len(got), got, len(tc.want))
			}
			for _, frags := range tc.want {
				if !containsWarning(got, frags...) {
					t.Errorf("no warning mentions all of %q in %q", frags, got)
				}
			}
		})
	}
}

func TestDiagnoseAdvice(t *testing.T) {
	tests := []struct {
		name string
		adv  *Advice
		want [][]string
	}{
		{
			name: "nil advice",
			adv:  nil,
			want: nil,
		},
		{
			name: "healthy advice",
			adv: &Advice{Converged: true, SCs: []SCAdvice{
				{Name: "a", Share: 2, Join: true}, {Name: "b", Share: 0},
			}},
			want: nil,
		},
		{
			name: "shares without benefit",
			adv: &Advice{Converged: true, SCs: []SCAdvice{
				{Name: "a", Share: 1}, {Name: "b", Share: 0},
			}},
			want: [][]string{{"none saves", "indifference"}},
		},
		{
			name: "not converged",
			adv: &Advice{Rounds: 40, SCs: []SCAdvice{
				{Name: "a", Share: 1, Join: true},
			}},
			want: [][]string{{"did not converge", "40 rounds"}},
		},
		{
			name: "nobody joins",
			adv: &Advice{Converged: true, SCs: []SCAdvice{
				{Name: "a", Share: 0}, {Name: "b", Share: 0},
			}},
			want: [][]string{{"no SC contributes"}},
		},
		{
			name: "not converged and nobody joins",
			adv:  &Advice{Rounds: 7, SCs: []SCAdvice{{Name: "a", Share: 0}}},
			want: [][]string{{"did not converge"}, {"no SC contributes"}},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := DiagnoseAdvice(tc.adv)
			if len(got) != len(tc.want) {
				t.Fatalf("DiagnoseAdvice returned %d warning(s) %q, want %d", len(got), got, len(tc.want))
			}
			for _, frags := range tc.want {
				if !containsWarning(got, frags...) {
					t.Errorf("no warning mentions all of %q in %q", frags, got)
				}
			}
		})
	}
}

func TestDiagnosePruning(t *testing.T) {
	if got := DiagnosePruning(approx.PruneStats{}); got != nil {
		t.Errorf("zero account warned: %q", got)
	}
	// The truncation budget truncates far below the warning line.
	quiet := approx.PruneStats{TotalMass: 1e-7, MaxMass: 1e-8, Joints: 40}
	if got := DiagnosePruning(quiet); got != nil {
		t.Errorf("healthy account warned: %q", got)
	}
	loud := approx.PruneStats{TotalMass: 0.2, MaxMass: 5e-3, Joints: 12}
	got := DiagnosePruning(loud)
	if len(got) != 1 || !containsWarning(got, "truncation", "budget") {
		t.Errorf("coarse account produced %q, want one truncation-budget warning", got)
	}
}

// TestFrameworkPruneStats pins the framework-wide account: a fluid-model
// framework never truncates (always zero), and the counter passed through
// Config.Approx is the one the framework reads back.
func TestFrameworkPruneStats(t *testing.T) {
	fw, err := New(Config{Federation: diagnoseFed(), Model: ModelFluid, MaxShares: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Equilibrium(nil, market.AlphaUtilitarian); err != nil {
		t.Fatal(err)
	}
	if s := fw.PruneStats(); s != (approx.PruneStats{}) {
		t.Errorf("fluid framework accumulated truncation stats: %+v", s)
	}
	counter := &approx.PruneCounter{}
	fw2, err := New(Config{
		Federation: diagnoseFed(),
		MaxShares:  []int{1, 1},
		Approx:     approx.Config{PruneStats: counter},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw2.Equilibrium(nil, market.AlphaUtilitarian); err != nil {
		t.Fatal(err)
	}
	if fw2.PruneStats() != counter.Stats() {
		t.Error("framework does not read back the caller-supplied counter")
	}
}

// diagnoseFed is a tiny two-SC federation for the framework-level tests.
func diagnoseFed() cloud.Federation {
	return cloud.Federation{
		FederationPrice: 0.5,
		SCs: []cloud.SC{
			{Name: "a", VMs: 3, ArrivalRate: 2.4, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "b", VMs: 3, ArrivalRate: 1.2, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		},
	}
}
