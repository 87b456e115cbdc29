package analysis

import (
	"encoding/json"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// WireShapes is the committed golden file format: one entry per struct
// reachable from the wire/checkpoint roots, with exact field names,
// rendered types, and tags. Regenerate with `perple-vet -update-wire`.
type WireShapes struct {
	// Comment documents provenance inside the JSON file itself.
	Comment string       `json:"comment"`
	Structs []WireStruct `json:"structs"`
}

// WireStruct is the recorded shape of one struct type.
type WireStruct struct {
	Type   string      `json:"type"` // fully-qualified, e.g. perple/internal/campaign.Checkpoint
	Fields []WireField `json:"fields"`
}

// WireField is one struct field's wire-relevant identity.
type WireField struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Tag  string `json:"tag,omitempty"`
}

// WirecompatConfig parameterizes the wirecompat pass.
type WirecompatConfig struct {
	// GoldenPath is the committed shape file.
	GoldenPath string
	// Roots lists "import/path.TypeName" roots; suffix-matched against
	// package paths, so fixture packages can reuse short specs.
	Roots []string
	// Update rewrites GoldenPath from the observed shapes instead of
	// diffing against it.
	Update bool
}

// DefaultWireRoots are the repo's serialization roots: the v2
// checkpoint envelope and snapshot (including the lease-ledger section
// the durable dispatch plane compacts into), every request/response of
// the dispatch protocol (the JSON wire), the WAL record whose PWB1 body
// layout is frozen on disk, and the harness result that owns the upload
// PWB1 body layout. Everything transitively reachable through their
// fields is part of the wire contract.
var DefaultWireRoots = []string{
	"perple/internal/campaign.Checkpoint",
	"perple/internal/campaign.checkpointEnvelope",
	"perple/internal/campaign.walRecord",
	"perple/internal/campaign.CorpusResponse",
	"perple/internal/campaign.LeaseResponse",
	"perple/internal/campaign.CompleteRequest",
	"perple/internal/campaign.CompleteResponse",
	"perple/internal/harness.Litmus7Result",
}

// NewWirecompat builds the wire-compatibility pass: it snapshots the
// field names, rendered types, and tags of every struct reachable from
// the configured roots and diffs the result against the committed
// golden file. Removing, retyping, or retagging a field — or adding
// one — without regenerating the golden is a finding: the golden file
// in the diff is what turns a silent PWB1/checkpoint break into a
// reviewable wire-contract change.
func NewWirecompat(cfg WirecompatConfig) *Analyzer {
	a := &Analyzer{
		Name: "wirecompat",
		Doc:  "diff wire/checkpoint struct shapes against the committed golden (perple-vet -update-wire regenerates)",
	}
	if len(cfg.Roots) == 0 {
		cfg.Roots = DefaultWireRoots
	}
	w := &wirecompat{cfg: cfg, shapes: map[string]*wireShapeRec{}}
	a.Run = func(pass *Pass) { w.run(pass) }
	a.Finish = func(f *FinishPass) { w.finish(f) }
	return a
}

// wireShapeRec is one observed struct with its declaration position.
type wireShapeRec struct {
	shape WireStruct
	pos   token.Position
	// fieldPos maps field name to its declaration position for
	// field-granular findings.
	fieldPos map[string]token.Position
}

type wirecompat struct {
	cfg      WirecompatConfig
	shapes   map[string]*wireShapeRec
	rootsHit map[string]bool
}

func (w *wirecompat) run(pass *Pass) {
	if pass.Pkg.External {
		return // wire roots live in compile units
	}
	if w.rootsHit == nil {
		w.rootsHit = map[string]bool{}
	}
	for _, root := range w.cfg.Roots {
		dot := strings.LastIndex(root, ".")
		if dot < 0 {
			continue
		}
		pkgSpec, typeName := root[:dot], root[dot+1:]
		if pass.Pkg.Path != pkgSpec && !strings.HasSuffix(pass.Pkg.Path, "/"+pkgSpec) {
			continue
		}
		w.rootsHit[root] = true
		obj := pass.Pkg.Types.Scope().Lookup(typeName)
		if obj == nil {
			pass.Reportf(pass.Pkg.Files[0].Pos(), "wire root %s not found in %s: the golden shape file references a type that no longer exists", root, pass.Pkg.Path)
			continue
		}
		w.collect(pass, obj.Type())
	}
}

// collect walks the type graph from t, recording every module-local
// named struct encountered.
func (w *wirecompat) collect(pass *Pass, t types.Type) {
	switch t := t.(type) {
	case *types.Pointer:
		w.collect(pass, t.Elem())
	case *types.Slice:
		w.collect(pass, t.Elem())
	case *types.Array:
		w.collect(pass, t.Elem())
	case *types.Map:
		w.collect(pass, t.Key())
		w.collect(pass, t.Elem())
	case *types.Chan:
		w.collect(pass, t.Elem())
	case *types.Struct:
		w.collectStruct(pass, "", t, token.Position{})
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() == nil {
			return // error, comparable, ...
		}
		key := obj.Pkg().Path() + "." + obj.Name()
		if _, done := w.shapes[key]; done {
			return
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			w.collectStruct(pass, key, u, pass.Fset.Position(obj.Pos()))
		default:
			// Named non-struct (type Hist map[string]int64): its shape is
			// its field-free underlying; still walk element types.
			w.shapes[key] = nil // cycle guard without a record
			w.collect(pass, u)
		}
	}
}

func (w *wirecompat) collectStruct(pass *Pass, key string, st *types.Struct, pos token.Position) {
	var rec *wireShapeRec
	if key != "" {
		rec = &wireShapeRec{shape: WireStruct{Type: key}, pos: pos, fieldPos: map[string]token.Position{}}
		w.shapes[key] = rec
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if rec != nil {
			rec.shape.Fields = append(rec.shape.Fields, WireField{
				Name: f.Name(),
				Type: types.TypeString(f.Type(), nil),
				Tag:  st.Tag(i),
			})
			rec.fieldPos[f.Name()] = pass.Fset.Position(f.Pos())
		}
		w.collect(pass, f.Type())
	}
}

func (w *wirecompat) finish(f *FinishPass) {
	goldenPos := token.Position{Filename: w.cfg.GoldenPath, Line: 1, Column: 1}
	observed := w.observedShapes()

	// When the driver loads only a subtree that contains none of the
	// roots (perple-vet ./internal/sim), there is nothing to compare;
	// diffing the empty observation against the golden would report every
	// recorded struct as removed. Full `./...` runs always hit the roots.
	if len(w.rootsHit) == 0 && !w.cfg.Update {
		return
	}

	if w.cfg.Update {
		if err := WriteWireShapes(w.cfg.GoldenPath, observed); err != nil {
			f.Reportf(goldenPos, "writing golden: %v", err)
		}
		return
	}

	data, err := os.ReadFile(w.cfg.GoldenPath)
	if err != nil {
		f.Reportf(goldenPos, "missing wire shape golden (%v); run `perple-vet -update-wire ./...` and commit the result", err)
		return
	}
	var golden WireShapes
	if err := json.Unmarshal(data, &golden); err != nil {
		f.Reportf(goldenPos, "unreadable wire shape golden: %v", err)
		return
	}

	goldenBy := map[string]WireStruct{}
	for _, s := range golden.Structs {
		goldenBy[s.Type] = s
	}
	seen := map[string]bool{}
	for _, cur := range observed {
		rec := w.shapes[cur.Type]
		seen[cur.Type] = true
		want, ok := goldenBy[cur.Type]
		if !ok {
			f.Reportf(rec.pos, "struct %s is reachable from the wire roots but not recorded in %s; run `perple-vet -update-wire ./...` to record its shape", cur.Type, w.cfg.GoldenPath)
			continue
		}
		w.diffStruct(f, rec, cur, want)
	}
	// Golden-side-only structs are reportable only when every root was
	// seen; on a partial load the unvisited roots legitimately leave
	// their reachable structs unobserved.
	if len(w.rootsHit) != len(w.cfg.Roots) {
		return
	}
	for _, want := range golden.Structs {
		if !seen[want.Type] {
			f.Reportf(goldenPos, "struct %s is recorded in the golden but no longer reachable from the wire roots; if the removal is intentional, run `perple-vet -update-wire ./...`", want.Type)
		}
	}
}

func (w *wirecompat) diffStruct(f *FinishPass, rec *wireShapeRec, cur, want WireStruct) {
	curBy := map[string]WireField{}
	for _, fd := range cur.Fields {
		curBy[fd.Name] = fd
	}
	for _, g := range want.Fields {
		c, ok := curBy[g.Name]
		if !ok {
			f.Reportf(rec.pos, "wire field %s.%s (recorded as %s) was removed; old peers and checkpoints still carry it — bump the shape file with `perple-vet -update-wire ./...` only if the break is intentional", cur.Type, g.Name, g.Type)
			continue
		}
		if c.Type != g.Type {
			f.Reportf(rec.fieldPos[g.Name], "wire field %s.%s retyped %s -> %s without bumping the shape file; run `perple-vet -update-wire ./...` after confirming decode compatibility", cur.Type, g.Name, g.Type, c.Type)
		}
		if c.Tag != g.Tag {
			f.Reportf(rec.fieldPos[g.Name], "wire field %s.%s retagged %q -> %q without bumping the shape file; tags rename JSON keys on the wire", cur.Type, g.Name, g.Tag, c.Tag)
		}
	}
	for _, c := range cur.Fields {
		found := false
		for _, g := range want.Fields {
			if g.Name == c.Name {
				found = true
				break
			}
		}
		if !found {
			f.Reportf(rec.fieldPos[c.Name], "new wire field %s.%s (%s) is not recorded in the shape file; run `perple-vet -update-wire ./...`", cur.Type, c.Name, c.Type)
		}
	}
}

// observedShapes returns the collected shapes sorted by type name.
func (w *wirecompat) observedShapes() []WireStruct {
	var out []WireStruct
	for _, rec := range w.shapes {
		if rec != nil {
			out = append(out, rec.shape)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// WriteWireShapes writes the golden file.
func WriteWireShapes(path string, structs []WireStruct) error {
	shapes := WireShapes{
		Comment: "wire/checkpoint struct shapes; generated by `perple-vet -update-wire ./...` — do not edit by hand",
		Structs: structs,
	}
	data, err := json.MarshalIndent(&shapes, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
