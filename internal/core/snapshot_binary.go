package core

import (
	"encoding/json"
	"fmt"
	"io"

	"probgraph/internal/dataset"
	"probgraph/internal/feature"
	"probgraph/internal/graph"
	"probgraph/internal/pmi"
	"probgraph/internal/simsearch"
	"probgraph/internal/snapbin"
)

// pgsnap v4 is the binary snapshot: the same sections as the v3 text
// format, laid out in a snapbin container (magic "PGSNAPB4", section
// table, 8-byte-aligned length-prefixed payloads) so a server can mmap
// the file and start serving without parsing the corpus — the count
// matrix and posting slabs are used directly from the mapping on
// little-endian hosts, and the page cache shares them across processes.
//
// Sections, in file order (order is fixed so save→load→save is
// byte-identical):
//
//	secOptions     one JSON blob of BuildOptions
//	secGeneration  u64 generation; i32 slab of tombstoned slots
//	secGraphs      u32 n; n dataset pgraph records (certain graph + JPTs)
//	secFeatures    u32 nf; per feature an i32 support slab + graph record
//	secStruct      simsearch binary section (absent when Struct is nil)
//	secPMI         pmi binary section (absent when PMI is nil)
//	secGIDs        i32 slab of slot→global-id map (range partitions only)
//
// Float payloads are stored as raw IEEE-754 bits, so the bitwise
// determinism contract holds across the round trip by construction —
// no formatting/parsing is involved at all.
const (
	secOptions    = 1
	secGeneration = 2
	secGraphs     = 3
	secFeatures   = 4
	secStruct     = 5
	secPMI        = 6
	secGIDs       = 7
)

// SaveBinary writes this exact generation as a pgsnap v4 binary snapshot.
// LoadDatabase and OpenSnapshot restore it; the output is deterministic
// (same view → same bytes).
func (v *View) SaveBinary(w io.Writer) error {
	bw := snapbin.NewWriter()

	optJSON, err := json.Marshal(v.opt)
	if err != nil {
		return fmt.Errorf("core: snapshot options: %w", err)
	}
	bw.Section(secOptions).Bytes(optJSON)

	gen := bw.Section(secGeneration)
	gen.U64(v.Generation)
	tombs := v.tombstoneIDs()
	tombs32 := make([]int32, len(tombs))
	for i, gi := range tombs {
		tombs32[i] = int32(gi)
	}
	gen.I32s(tombs32)

	gs := bw.Section(secGraphs)
	gs.U32(uint32(len(v.Graphs)))
	for _, pg := range v.Graphs {
		dataset.EncodePGraphBinary(gs, pg, 0)
	}

	fs := bw.Section(secFeatures)
	fs.U32(uint32(len(v.Features)))
	for _, f := range v.Features {
		sup := make([]int32, len(f.Support))
		for i, gi := range f.Support {
			sup[i] = int32(gi)
		}
		fs.I32s(sup)
		graph.EncodeBinary(fs, f.G)
	}

	if v.Struct != nil {
		v.Struct.EncodeBinary(bw.Section(secStruct))
	}
	if v.PMI != nil {
		v.PMI.EncodeBinary(bw.Section(secPMI))
	}
	if v.gids != nil {
		gids32 := make([]int32, len(v.gids))
		for i, g := range v.gids {
			gids32[i] = int32(g)
		}
		bw.Section(secGIDs).I32s(gids32)
	}

	_, err = bw.WriteTo(w)
	return err
}

// loadBinarySnapshot restores a database from pgsnap v4 bytes — typically
// an mmap'd file (OpenSnapshot) or a fully read stream (LoadDatabase).
// The returned database may alias data: slabs are pointed at it zero-copy
// where the host allows, so the caller must keep it valid (and unmodified)
// for the database's lifetime.
func loadBinarySnapshot(data []byte) (*Database, error) {
	snap, err := snapbin.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	v := &View{Generation: 1}

	sec, ok := snap.Section(secOptions)
	if !ok {
		return nil, fmt.Errorf("core: snapshot: missing options section")
	}
	c := snapbin.NewCursor(sec)
	optJSON := c.Bytes()
	if c.Err() != nil {
		return nil, fmt.Errorf("core: snapshot options: %w", c.Err())
	}
	if err := json.Unmarshal(optJSON, &v.opt); err != nil {
		return nil, fmt.Errorf("core: snapshot options: %w", err)
	}

	sec, ok = snap.Section(secGeneration)
	if !ok {
		return nil, fmt.Errorf("core: snapshot: missing generation section")
	}
	c = snapbin.NewCursor(sec)
	v.Generation = c.U64()
	tombs32 := c.I32s()
	if c.Err() != nil {
		return nil, fmt.Errorf("core: snapshot generation: %w", c.Err())
	}

	sec, ok = snap.Section(secGraphs)
	if !ok {
		return nil, fmt.Errorf("core: snapshot: missing graphs section")
	}
	c = snapbin.NewCursor(sec)
	n := c.Int()
	if c.Err() != nil {
		return nil, fmt.Errorf("core: snapshot graphs: %w", c.Err())
	}
	for gi := 0; gi < n; gi++ {
		pg, _, err := dataset.DecodePGraphBinary(c)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot graph %d: %w", gi, err)
		}
		v.Graphs = append(v.Graphs, pg)
		v.Certain = append(v.Certain, pg.G)
	}

	var tombs []int
	for _, t := range tombs32 {
		gi := int(t)
		if gi < 0 || gi >= n {
			return nil, fmt.Errorf("core: snapshot: tombstone %d out of range [0,%d)", gi, n)
		}
		tombs = append(tombs, gi)
	}

	sec, ok = snap.Section(secFeatures)
	if !ok {
		return nil, fmt.Errorf("core: snapshot: missing features section")
	}
	c = snapbin.NewCursor(sec)
	nf := c.Int()
	if c.Err() != nil {
		return nil, fmt.Errorf("core: snapshot features: %w", c.Err())
	}
	for fi := 0; fi < nf; fi++ {
		sup32 := c.I32s()
		if c.Err() != nil {
			return nil, fmt.Errorf("core: snapshot feature %d: %w", fi, c.Err())
		}
		support := make([]int, len(sup32))
		for k, gi := range sup32 {
			if gi < 0 || int(gi) >= n {
				return nil, fmt.Errorf("core: snapshot feature %d: support %d out of range [0,%d)", fi, gi, n)
			}
			support[k] = int(gi)
		}
		fg, err := graph.DecodeBinary(c)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot feature %d graph: %w", fi, err)
		}
		v.Features = append(v.Features, &feature.Feature{
			G: fg, Code: graph.CanonicalCode(fg), Support: support,
		})
	}
	v.Build.Features = len(v.Features)

	if sec, ok = snap.Section(secStruct); ok {
		ix, err := simsearch.DecodeBinary(snapbin.NewCursor(sec), v.Certain)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot: %w", err)
		}
		v.Struct = ix.WithTombstones(tombs)
	}

	if sec, ok = snap.Section(secPMI); ok {
		idx, err := pmi.DecodeBinary(snapbin.NewCursor(sec), n)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot: %w", err)
		}
		// As in the text loader: pmi sections do not persist options, and
		// masked columns were written as uncontained, so the options and
		// the tombstone mask are restored here.
		idx.Opt = v.opt.PMI
		v.PMI = idx.WithMaskedColumns(tombs)
		v.Build.IndexSizeBytes = v.PMI.SizeBytes()
	}

	if sec, ok = snap.Section(secGIDs); ok {
		c = snapbin.NewCursor(sec)
		gids32 := c.I32s()
		if c.Err() != nil {
			return nil, fmt.Errorf("core: snapshot gids: %w", c.Err())
		}
		if len(gids32) != n {
			return nil, fmt.Errorf("core: snapshot: gids count %d != graphs %d", len(gids32), n)
		}
		gids := make([]int, n)
		for k, g := range gids32 {
			if g < 0 || (k > 0 && int(g) <= gids[k-1]) {
				return nil, fmt.Errorf("core: snapshot: bad global id %d (ids must be non-negative and strictly ascending)", g)
			}
			gids[k] = int(g)
		}
		v.gids = gids
	}

	v.liveCount = n
	if len(tombs) > 0 {
		v.live = make([]bool, n)
		for gi := range v.live {
			v.live[gi] = true
		}
		for _, gi := range tombs {
			if v.live[gi] {
				v.live[gi] = false
				v.liveCount--
			}
		}
	}

	v.newLazyEngines(n)
	return newFromView(v), nil
}
