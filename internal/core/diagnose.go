package core

import (
	"fmt"
	"strings"

	"scshare/internal/approx"
)

// Diagnose inspects a finished sweep for the silent failure modes that
// produce plausible-looking but useless output: an empty grid, dead markets
// (price points where no start converged), a grid where every point failed
// to converge, and a market where no SC ever participates. It returns one
// human-readable warning per condition, or nil when the sweep looks healthy.
//
// The conditions are warnings, not errors, because each has a legitimate
// boundary reading (a genuinely dead price region, a federation that truly
// never pays) — but all of them are far more often a mis-specified
// federation, an over-tight model tolerance, or an iteration budget that ran
// out. Callers surface them loudly (scmarket on stderr, scserve in the
// response) instead of letting a run that "succeeded" pass silently.
func Diagnose(pts []SweepPoint) []string {
	if len(pts) == 0 {
		return []string{"sweep produced no price points: nothing was evaluated"}
	}
	var warnings []string
	var dead []string
	participates, benefits := false, false
	for _, pt := range pts {
		if !pt.Converged {
			dead = append(dead, fmt.Sprintf("%g", pt.Ratio))
			continue
		}
		for _, s := range pt.Shares {
			if s > 0 {
				participates = true
			}
		}
		for _, u := range pt.Utilities {
			if u > 0 {
				benefits = true
			}
		}
	}
	switch {
	case len(dead) == len(pts):
		warnings = append(warnings, fmt.Sprintf(
			"no price point converged (%d of %d): every market is dead — "+
				"check the federation spec and the game's iteration budget",
			len(dead), len(pts)))
	case len(dead) > 0:
		warnings = append(warnings, fmt.Sprintf(
			"dead market at price ratio(s) %s: no equilibrium found there; "+
				"welfare is reported as -Inf and efficiency as 0",
			strings.Join(dead, ", ")))
	}
	switch {
	case len(dead) == len(pts):
		// Every point is dead; the participation conditions below would only
		// restate that there is nothing to look at.
	case !participates:
		warnings = append(warnings, "no SC shares any VM at any price point: "+
			"the federation never forms — sharing may be priced out, or the "+
			"performance model may see no benefit to lending")
	case !benefits:
		warnings = append(warnings, "SCs share VMs but no SC ever gains "+
			"utility over standing alone: every equilibrium on the grid is an "+
			"indifference point, not a working market")
	}
	return warnings
}

// pruneMassWarn is the per-summary truncated-mass level above which
// DiagnosePruning speaks up. The approximate model's adaptive truncation
// budget is 1e-9 per summary — six orders of magnitude below this line —
// so crossing it means truncation is visibly reshaping summary
// distributions, not just shedding numerical dust.
const pruneMassWarn = 1e-3

// DiagnosePruning turns the framework's truncation account into a warning
// when the discarded mass is large enough to shape results. The stats are
// cumulative over the framework's lifetime (warm caches make individual
// solves inseparable anyway), so the warning reads accordingly. Healthy
// accounts — including the always-zero ones from the non-approx models —
// produce nil.
func DiagnosePruning(s approx.PruneStats) []string {
	if s.MaxMass <= pruneMassWarn {
		return nil
	}
	return []string{fmt.Sprintf(
		"adaptive truncation discarded up to %.2g probability mass from a "+
			"single summary distribution (%.3g total over %d summaries since this "+
			"framework started): far above the approx model's truncation "+
			"budget, so truncation is shaping results",
		s.MaxMass, s.TotalMass, s.Joints)}
}

// DiagnoseAdvice inspects a single negotiation outcome for the same class of
// silent failures: a non-converged game whose terminal state is being
// reported as if it were an equilibrium, and an "equilibrium" in which no SC
// joins the federation at all.
func DiagnoseAdvice(adv *Advice) []string {
	if adv == nil {
		return nil
	}
	var warnings []string
	if !adv.Converged {
		warnings = append(warnings, fmt.Sprintf(
			"negotiation did not converge after %d rounds: the reported "+
				"shares are the terminal state of the best run, not an equilibrium",
			adv.Rounds))
	}
	shares, benefits := false, false
	for _, sc := range adv.SCs {
		if sc.Share > 0 {
			shares = true
		}
		if sc.Join {
			benefits = true
		}
	}
	switch {
	case !shares:
		warnings = append(warnings, "no SC contributes any VM at this price: "+
			"the federation does not form — consider sweeping the price ratio "+
			"to find where sharing starts to pay")
	case !benefits:
		warnings = append(warnings, "SCs contribute VMs but none saves over "+
			"standing alone: the equilibrium is an indifference point, not a "+
			"working market — the price may sit exactly where lending income "+
			"cancels the performance cost")
	}
	return warnings
}
