// Declarative cross-product experiments.
//
// A Grid is an experiment whose cells are the full cross product of
// named axes (algorithm × topology × ...). Its runner enumerates the
// product in axis order — the first axis varies slowest — and gives
// cell i of the full product the seed CellSeed(base, i). A Where filter
// selects cells without renumbering them, so a filtered run reproduces
// the matching cells of the full run bit for bit. The runner also
// builds each cell's Record, the Result.Metrics keys and the table from
// the axis values, and flushes per-cell protocol traces in cell order.

package exp

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mptcp/internal/sched"
	"mptcp/internal/trace"
)

// Axis is one named dimension of a Grid. Name is a Record field —
// algorithm, topology, scenario, scheduler, recvbuf or workload — and
// the runner stores each cell's value there.
type Axis struct {
	Name   string
	Values []string
}

// Grid declares a cross-product experiment.
type Grid struct {
	// Axes, slowest-varying first. Their order is the seed order:
	// values appended to the first axis leave every earlier cell's seed
	// untouched.
	Axes []Axis
	// Cols heads the table's value columns in a grid without a topology
	// axis, one row per cell. A topology axis instead becomes the value
	// columns, one row per combination of the other axes.
	Cols  []string
	Title string
	Note  string
	// NoTrace marks grids whose cells cannot trace (a sharded cell has
	// no single clock); running one with Config.TraceW set is an error.
	NoTrace bool
	// Cell simulates one cell. It runs concurrently with other cells.
	Cell func(c *Cell) CellOut
}

// Cell is one cell of a Grid run.
type Cell struct {
	Config // Seed is CellSeed(Base, the cell's full-grid index)
	// Base is the run's base seed, for workload randomness every cell
	// shares (the tournament's FatTree traffic matrix).
	Base int64
	// V holds the cell's value on each axis, in axis order.
	V   []string
	tr  *trace.Tracer
	out CellOut
}

// world returns a fresh world on the cell's seed. When Config.TraceW is
// set it carries a cell-private tracer labelled with the cell's axis
// values joined by "/", which the runner flushes in cell order.
func (c *Cell) world() *world {
	w := newWorld(c.Seed)
	if c.TraceW != nil {
		w.tr = trace.New(0, trace.SimNow(w.s))
		w.tr.SetLabel(strings.Join(c.V, "/"))
		c.tr = w.tr
	}
	return w
}

// CellOut is one cell's output.
type CellOut struct {
	// Record carries the cell's metrics and any field the grid fixes
	// (e.g. appgrid's receive buffer); the runner fills the axis fields.
	Record
	// Head lists the Metrics also surfaced in Result.Metrics, keyed
	// "<axis values joined by _>_<name>"; absent metrics are skipped.
	Head []string
	// Text is the cell's table text: one entry under a topology axis,
	// len(Cols) entries otherwise.
	Text []string
}

// set stores v in the Record field named by axis and returns v as
// spelled inside a Result.Metrics key.
func (r *Record) set(axis, v string) (key string) {
	switch axis {
	case "algorithm":
		r.Algorithm = v
		return strings.ToLower(v)
	case "topology":
		r.Topology = v
	case "scenario":
		r.Scenario = v
	case "scheduler":
		r.Scheduler = v
	case "workload":
		r.Workload = v
	case "recvbuf":
		r.RecvBuf, _ = strconv.ParseInt(v, 10, 64)
		return "buf" + v
	default:
		panic("exp: no Record field for grid axis " + axis)
	}
	return v
}

// where parses a Config.Where filter ("axis=value[,axis=value]") into
// the values it keeps on each axis, nil meaning all; an axis named more
// than once keeps each named value. Scheduler values are canonicalised
// through sched.Canonical and other values match case-insensitively,
// so a filter selects the cells it names.
func (g *Grid) where(id, filter string) ([][]string, error) {
	want := make([][]string, len(g.Axes))
	for _, term := range strings.FieldsFunc(filter, func(r rune) bool { return r == ',' }) {
		name, v, _ := strings.Cut(term, "=")
		a := slices.IndexFunc(g.Axes, func(ax Axis) bool { return ax.Name == name })
		if a < 0 {
			var names []string
			for _, ax := range g.Axes {
				names = append(names, ax.Name)
			}
			return nil, fmt.Errorf("%s has no %q axis (axes: %s)", id, name, strings.Join(names, ", "))
		}
		if name == "scheduler" {
			if canon, err := sched.Canonical(v); err == nil {
				v = canon
			}
		}
		vals := g.Axes[a].Values
		i := slices.IndexFunc(vals, func(val string) bool { return strings.EqualFold(val, v) })
		if i < 0 {
			return nil, fmt.Errorf("%q is not on %s's %s axis (values: %s)", v, id, name, strings.Join(vals, ", "))
		}
		want[a] = append(want[a], vals[i])
	}
	return want, nil
}

// check reports whether g can honour cfg's Where filter and TraceW.
func (g *Grid) check(id string, cfg Config) ([][]string, error) {
	if cfg.TraceW != nil && g.NoTrace {
		return nil, fmt.Errorf("%s cannot trace: its cells run on a sharded engine", id)
	}
	return g.where(id, cfg.Where)
}

// run executes the grid: every selected cell on cfg's worker pool, then
// Records, metrics, table and traces assembled in cell order, so the
// Result and the trace bytes are identical at any Parallelism.
func (g *Grid) run(id string, cfg Config) *Result {
	cfg = cfg.norm()
	want, err := g.check(id, cfg)
	if err != nil {
		panic("exp: " + err.Error())
	}
	kept := func(a int, v string) bool { return want[a] == nil || slices.Contains(want[a], v) }
	// Enumerate the kept cells in full-grid order with their mixed-radix
	// index in the full product, the first axis slowest.
	type pick struct {
		idx int
		v   []string
	}
	picks := []pick{{}}
	for a, ax := range g.Axes {
		var next []pick
		for _, p := range picks {
			for i, v := range ax.Values {
				if kept(a, v) {
					next = append(next, pick{p.idx*len(ax.Values) + i, append(slices.Clip(p.v), v)})
				}
			}
		}
		picks = next
	}
	cells := RunCells(cfg, len(picks), func(cellCfg Config, k int) *Cell {
		c := &Cell{Config: cellCfg, Base: cfg.Seed, V: picks[k].v}
		c.Seed = CellSeed(cfg.Seed, picks[k].idx)
		c.out = g.Cell(c)
		return c
	})

	res := newResult(id)
	pivot := slices.IndexFunc(g.Axes, func(ax Axis) bool { return ax.Name == "topology" })
	table := Table{Title: g.Title}
	for a, ax := range g.Axes {
		if a != pivot {
			table.Cols = append(table.Cols, ax.Name)
		}
	}
	if pivot < 0 {
		table.Cols = append(table.Cols, g.Cols...)
	} else {
		for _, v := range g.Axes[pivot].Values {
			if kept(pivot, v) {
				table.Cols = append(table.Cols, v)
			}
		}
	}
	rowOf := map[string]int{}
	for _, c := range cells {
		rec := c.out.Record
		var key, label []string
		for a, ax := range g.Axes {
			key = append(key, rec.set(ax.Name, c.V[a]))
			if a != pivot {
				label = append(label, c.V[a])
			}
		}
		res.Records = append(res.Records, rec)
		for _, h := range c.out.Head {
			if v, ok := rec.Metrics[h]; ok {
				res.Metrics[strings.Join(key, "_")+"_"+h] = v
			}
		}
		rk := strings.Join(label, "\x00")
		ri, ok := rowOf[rk]
		if !ok {
			ri = len(table.Rows)
			rowOf[rk] = ri
			table.Rows = append(table.Rows, label)
		}
		table.Rows[ri] = append(table.Rows[ri], c.out.Text...)
	}
	res.Tables = append(res.Tables, table)
	res.note("%s", g.Note)
	if cfg.TraceW != nil {
		for _, c := range cells {
			if err := c.tr.Flush(cfg.TraceW); err != nil {
				res.note("trace flush failed: %v", err)
				break
			}
		}
	}
	return res
}
