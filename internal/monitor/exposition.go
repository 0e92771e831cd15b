package monitor

import (
	"errors"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"

	"nektarg/internal/telemetry"
)

// Exposition writes Prometheus text exposition (version 0.0.4) — no client
// library, no global registries. It is the only such writer in the tree:
// /metrics renders through it here and /cluster/metrics in internal/fleet.
// It owns what the format demands, so no caller re-decides it: metric and
// label names are validated, label values and HELP text are escaped, and a
// sample is always written for the family announced last, so a family's
// HELP/TYPE header precedes its first sample by construction. The first
// error (validation or write) sticks, stops all further output and is
// reported by Err.
type Exposition struct {
	w      io.Writer
	family string // the family Sample writes to; "" until the first Family
	err    error
}

// namespace prefixes every metric family name.
const namespace = "nektarg"

// NewExposition starts an exposition whose family names are all prefixed
// with namespace.
func NewExposition(w io.Writer) *Exposition { return &Exposition{w: w} }

// Err returns the first error the exposition hit.
func (e *Exposition) Err() error { return e.err }

func (e *Exposition) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("monitor: exposition: "+format, args...)
	}
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	statName   = regexp.MustCompile(`^[a-zA-Z0-9_:]+$`) // a suffix: follows "nektarg_"
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	escHelp    = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	escLabel   = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

// Family announces the family nektarg<suffix> with its HELP/TYPE
// preamble; the Samples that follow belong to it. typ is "counter" or
// "gauge".
func (e *Exposition) Family(suffix, help, typ string) {
	name := namespace + suffix
	if !metricName.MatchString(name) {
		e.fail("invalid metric name %q", name)
	}
	if typ != "counter" && typ != "gauge" {
		e.fail("metric %q: invalid type %q", name, typ)
	}
	e.family = name
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s %s\n", name, escHelp.Replace(help), name, typ)
	}
}

// Sample writes one sample of the announced family, labels in the order
// given, the value in shortest round-trip form.
func (e *Exposition) Sample(labels [][2]string, v float64) {
	if e.family == "" {
		e.fail("sample before any family was announced")
	}
	var b strings.Builder
	for i, kv := range labels {
		if !labelName.MatchString(kv[0]) {
			e.fail("metric %s: invalid label name %q", e.family, kv[0])
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0] + `="` + escLabel.Replace(kv[1]) + `"`)
	}
	if e.err != nil {
		return
	}
	val := strconv.FormatFloat(v, 'g', -1, 64)
	if len(labels) == 0 {
		_, e.err = fmt.Fprintf(e.w, "%s %s\n", e.family, val)
	} else {
		_, e.err = fmt.Fprintf(e.w, "%s{%s} %s\n", e.family, b.String(), val)
	}
}

// Value writes a family that is one unlabeled sample.
func (e *Exposition) Value(suffix, help, typ string, v float64) {
	e.Family(suffix, help, typ)
	e.Sample(nil, v)
}

// Validate reports whether the stat can be exposed: a family suffix that
// keeps the metric name legal, a known type ("" means gauge) and legal label
// names. Every decoder of a foreign Stat checks it (fleet's
// /cluster/publish); Stats enforces it again on the way out.
func (s Stat) Validate() error {
	if !statName.MatchString(s.Name) {
		return fmt.Errorf("monitor: stat name %q is not [a-zA-Z0-9_:]+", s.Name)
	}
	if s.Type != "" && s.Type != "counter" && s.Type != "gauge" {
		return fmt.Errorf("monitor: stat %s: type %q is not counter or gauge", s.Name, s.Type)
	}
	for _, kv := range s.Labels {
		if !labelName.MatchString(kv[0]) {
			return fmt.Errorf("monitor: stat %s: invalid label name %q", s.Name, kv[0])
		}
	}
	return nil
}

// Stats writes externally supplied samples as the families
// nektarg_<Name>. Adjacent samples of one Name form a family, announced
// from its first sample's Help and Type, so the caller groups them
// (Monitor.Stats stable-sorts on Name).
func (e *Exposition) Stats(stats []Stat) {
	for i, s := range stats {
		if err := s.Validate(); err != nil {
			e.fail("%v", err)
		}
		if i == 0 || s.Name != stats[i-1].Name {
			help, typ := s.Help, s.Type
			if help == "" {
				help = "(no help)"
			}
			if typ == "" {
				typ = "gauge"
			}
			e.Family("_"+s.Name, help, typ)
		}
		e.Sample(s.Labels, s.Value)
	}
}

// StageRollup writes the cross-track stage statistics of an aggregate: the
// paper's min/mean/max table as nektarg_cluster_stage_seconds, then
// nektarg<prefix>_imbalance_ratio and nektarg<prefix>_straggler_share. unit names
// what one track of the aggregate is ("track", "process") and scope what
// they add up to ("cluster", "fleet") in the HELP text.
func (e *Exposition) StageRollup(prefix, unit, scope string, cs *telemetry.ClusterStats) {
	imb := imbalanceOf(cs)
	e.Family("_cluster_stage_seconds", "Per-"+unit+" stage totals aggregated across the "+scope+".", "gauge")
	for _, r := range imb {
		e.Sample([][2]string{{"stage", r.Stage}, {"stat", "min"}}, r.MinS)
		e.Sample([][2]string{{"stage", r.Stage}, {"stat", "mean"}}, r.MeanS)
		e.Sample([][2]string{{"stage", r.Stage}, {"stat", "max"}}, r.MaxS)
	}
	e.Family(prefix+"_imbalance_ratio", "Max/mean per-"+unit+" stage total (1 = balanced).", "gauge")
	for _, r := range imb {
		e.Sample([][2]string{{"stage", r.Stage}}, r.Ratio)
	}
	e.Family(prefix+"_straggler_share", "Straggler "+unit+"'s fraction of the stage's summed time.", "gauge")
	for _, r := range imb {
		e.Sample([][2]string{{"stage", r.Stage}, {"straggler", r.Straggler}}, r.StragglerShare)
	}
}

// Traffic writes the nonzero cells of a traffic matrix, level-major, as
// nektarg<prefix>_messages_total and nektarg<prefix>_bytes_total. Bytes are counted
// once, at the sender, so a matrix summed over tracks is exact.
func (e *Exposition) Traffic(prefix, msgsHelp, bytesHelp string, m *telemetry.TrafficMatrix) {
	cells := func(value func(telemetry.Traffic) int64) {
		for l := telemetry.Level(0); l < telemetry.NumLevels; l++ {
			for op := telemetry.Op(0); op < telemetry.NumOps; op++ {
				if t := m[l][op]; t.Msgs != 0 || t.Bytes != 0 {
					e.Sample([][2]string{{"level", l.String()}, {"op", op.String()}}, float64(value(t)))
				}
			}
		}
	}
	e.Family(prefix+"_messages_total", msgsHelp, "counter")
	cells(func(t telemetry.Traffic) int64 { return t.Msgs })
	e.Family(prefix+"_bytes_total", bytesHelp, "counter")
	cells(func(t telemetry.Traffic) int64 { return t.Bytes })
}

// LintExposition checks a rendered exposition the way a scraper would need
// it: every sample line's family was announced with # HELP and # TYPE before
// it. It returns the families announced; the expositions' own tests and the
// publish fuzz target share it.
func LintExposition(text string) (map[string]bool, error) {
	helped, typed := map[string]bool{}, map[string]bool{}
	var errs []error
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 2 && f[0] == "#" && f[1] == "HELP":
			helped[f[2]] = true
		case len(f) > 2 && f[0] == "#" && f[1] == "TYPE":
			typed[f[2]] = true
		case line != "":
			fam := line
			if i := strings.IndexAny(fam, "{ "); i >= 0 {
				fam = fam[:i]
			}
			if !helped[fam] || !typed[fam] {
				errs = append(errs, fmt.Errorf("sample %q emitted before its HELP/TYPE headers", line))
			}
		}
	}
	for fam := range helped {
		if !typed[fam] {
			delete(helped, fam)
		}
	}
	return helped, errors.Join(errs...)
}
