package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"probgraph/internal/dataset"
	"probgraph/internal/feature"
	"probgraph/internal/graph"
	"probgraph/internal/pmi"
	"probgraph/internal/simsearch"
	"probgraph/internal/snapbin"
)

// The snapshot is the full indexed database in one versioned file, so a
// process can start answering queries without re-mining features or
// rebuilding the PMI. It composes the existing line-oriented codecs:
//
//	pgsnap v3
//	options <one-line JSON of BuildOptions>
//	generation <gen> <numTombstones>
//	  tombs <slot ids ascending>      (only when numTombstones > 0)
//	graphs <n>
//	  ... n dataset pgraph blocks (certain graph + JPTs) ...
//	features <nf>
//	  feat <i> <supportLen> <support ints...>
//	  ... graph codec block ...
//	struct <0|1>
//	  ... simsearch section when present ...
//	pmi <0|1>
//	  ... pmi.Save section when present ...
//	endpgsnap
//
// The v3 generation section carries the view's generation number and its
// tombstoned slots; the graphs section still writes every slot (dead ones
// included) so graph indices — and therefore per-candidate query seeding —
// survive the round trip, while the PMI section writes masked columns as
// uncontained and the loader re-applies the mask from the tombstone list.
// Snapshots written before generations existed (header "pgsnap v1", with
// either a v1 or v2 simsearch section) still load: they restore at
// generation 1 with no tombstones.
//
// Every numeric payload round-trips bitwise (JPT probabilities via %g
// shortest-representation, PMI bounds via %.17g), so a query against the
// reloaded database returns exactly what the original would. Only the
// per-graph inference engines are rebuilt after a load — lazily, on first
// use per slot (see View.Engine); junction-tree construction is
// deterministic, so deferral changes no answer.
//
// pgsnap v4 is the binary counterpart of this format — same sections,
// mmap-friendly layout; see snapshot_binary.go. LoadDatabase sniffs the
// format from the leading magic, Save keeps writing text, SaveBinary and
// SaveFile write v4.

// SnapshotVersion identifies the snapshot format written by Save. The v3
// format added the generation section; v1 files still load.
const SnapshotVersion = "pgsnap v3"

// snapshotVersionV1 is the pre-generation header, accepted by
// LoadDatabase for back compatibility.
const snapshotVersionV1 = "pgsnap v1"

// Save writes this exact generation — graphs, JPTs, mined features,
// structural filter, PMI, generation, and tombstones — as one snapshot.
// LoadDatabase restores it without any feature mining or bound
// recomputation.
func (v *View) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, SnapshotVersion)

	optJSON, err := json.Marshal(v.opt)
	if err != nil {
		return fmt.Errorf("core: snapshot options: %w", err)
	}
	fmt.Fprintf(bw, "options %s\n", optJSON)

	fmt.Fprintf(bw, "generation %d %d\n", v.Generation, v.Tombstones())
	if v.Tombstones() > 0 {
		fmt.Fprint(bw, "tombs")
		for gi := range v.Graphs {
			if !v.Live(gi) {
				fmt.Fprintf(bw, " %d", gi)
			}
		}
		fmt.Fprintln(bw)
	}

	// Range partitions (SaveRange) persist their slot→global-id map; the
	// line is absent for ordinary snapshots, keeping them byte-identical
	// to what earlier writers produced.
	if v.gids != nil {
		fmt.Fprintf(bw, "gids %d", len(v.gids))
		for _, g := range v.gids {
			fmt.Fprintf(bw, " %d", g)
		}
		fmt.Fprintln(bw)
	}

	fmt.Fprintf(bw, "graphs %d\n", len(v.Graphs))
	for _, pg := range v.Graphs {
		if err := dataset.EncodePGraph(bw, pg, 0); err != nil {
			return err
		}
	}

	fmt.Fprintf(bw, "features %d\n", len(v.Features))
	for i, f := range v.Features {
		fmt.Fprintf(bw, "feat %d %d", i, len(f.Support))
		for _, gi := range f.Support {
			fmt.Fprintf(bw, " %d", gi)
		}
		fmt.Fprintln(bw)
		if err := graph.Encode(bw, f.G); err != nil {
			return err
		}
	}

	if v.Struct != nil {
		fmt.Fprintln(bw, "struct 1")
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := v.Struct.Save(w); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(bw, "struct 0")
	}

	if v.PMI != nil {
		fmt.Fprintln(bw, "pmi 1")
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := v.PMI.Save(w); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(bw, "pmi 0")
	}

	fmt.Fprintln(bw, "endpgsnap")
	return bw.Flush()
}

// LoadDatabase reads a snapshot written by Save or SaveBinary and returns
// a Database equivalent to the one that wrote it: identical graphs,
// features, structural counts, PMI bounds, generation, and tombstones.
// The format is sniffed from the first bytes, so callers never need to
// know which one they were handed. No feature mining or bound computation
// runs, and inference engines are built lazily on first use (see
// View.Engine). Pre-generation text snapshots (header "pgsnap v1") load
// at generation 1 with no tombstones. To map a binary snapshot instead of
// reading it into memory, use OpenSnapshot.
func LoadDatabase(r io.Reader) (*Database, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(snapbin.Magic)); err == nil && snapbin.IsBinary(magic) {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading binary snapshot: %w", err)
		}
		return loadBinarySnapshot(data)
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)

	header, err := snapLine(sc)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot header: %w", err)
	}
	v3 := header == SnapshotVersion
	if !v3 && header != snapshotVersionV1 {
		return nil, fmt.Errorf("core: not a snapshot (header %q, want %q or %q)",
			header, SnapshotVersion, snapshotVersionV1)
	}

	v := &View{Generation: 1}
	line, err := snapLine(sc)
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(line, "options ") {
		return nil, fmt.Errorf("core: snapshot: want options line, got %q", line)
	}
	if err := json.Unmarshal([]byte(line[len("options "):]), &v.opt); err != nil {
		return nil, fmt.Errorf("core: snapshot options: %w", err)
	}

	var tombs []int
	if v3 {
		line, err = snapLine(sc)
		if err != nil {
			return nil, err
		}
		var ntomb int
		if _, err := fmt.Sscanf(line, "generation %d %d", &v.Generation, &ntomb); err != nil {
			return nil, fmt.Errorf("core: snapshot: bad generation line %q", line)
		}
		if ntomb > 0 {
			line, err = snapLine(sc)
			if err != nil {
				return nil, err
			}
			fields := strings.Fields(line)
			if len(fields) != 1+ntomb || fields[0] != "tombs" {
				return nil, fmt.Errorf("core: snapshot: bad tombs line %q (want %d ids)", line, ntomb)
			}
			for _, tok := range fields[1:] {
				gi, err := strconv.Atoi(tok)
				if err != nil || gi < 0 {
					return nil, fmt.Errorf("core: snapshot: bad tombstone id %q", tok)
				}
				tombs = append(tombs, gi)
			}
		}
	}

	line, err = snapLine(sc)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(line, "gids ") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("core: snapshot: bad gids line %q", line)
		}
		ng, convErr := strconv.Atoi(fields[1])
		if convErr != nil || len(fields) != 2+ng {
			return nil, fmt.Errorf("core: snapshot: bad gids line %q", line)
		}
		gids := make([]int, ng)
		for k, tok := range fields[2:] {
			g, err := strconv.Atoi(tok)
			if err != nil || g < 0 || (k > 0 && g <= gids[k-1]) {
				return nil, fmt.Errorf("core: snapshot: bad global id %q (ids must be non-negative and strictly ascending)", tok)
			}
			gids[k] = g
		}
		v.gids = gids
		line, err = snapLine(sc)
		if err != nil {
			return nil, err
		}
	}
	var n int
	if _, err := fmt.Sscanf(line, "graphs %d", &n); err != nil {
		return nil, fmt.Errorf("core: snapshot: bad graphs header %q", line)
	}
	if v.gids != nil && len(v.gids) != n {
		return nil, fmt.Errorf("core: snapshot: gids count %d != graphs %d", len(v.gids), n)
	}
	dec := dataset.NewPGraphDecoderFromScanner(sc)
	for gi := 0; gi < n; gi++ {
		pg, _, err := dec.Decode()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot graph %d: %w", gi, err)
		}
		v.Graphs = append(v.Graphs, pg)
		v.Certain = append(v.Certain, pg.G)
	}
	for _, gi := range tombs {
		if gi >= n {
			return nil, fmt.Errorf("core: snapshot: tombstone %d out of range [0,%d)", gi, n)
		}
	}

	line, err = snapLine(sc)
	if err != nil {
		return nil, err
	}
	var nf int
	if _, err := fmt.Sscanf(line, "features %d", &nf); err != nil {
		return nil, fmt.Errorf("core: snapshot: bad features header %q", line)
	}
	gdec := graph.NewDecoderFromScanner(sc)
	for fi := 0; fi < nf; fi++ {
		line, err = snapLine(sc)
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[0] != "feat" {
			return nil, fmt.Errorf("core: snapshot: bad feat line %q", line)
		}
		idx, err1 := strconv.Atoi(fields[1])
		supLen, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || idx != fi || len(fields) != 3+supLen {
			return nil, fmt.Errorf("core: snapshot: bad feat line %q for feature %d", line, fi)
		}
		support := make([]int, supLen)
		for k, tok := range fields[3:] {
			gi, err := strconv.Atoi(tok)
			if err != nil || gi < 0 || gi >= n {
				return nil, fmt.Errorf("core: snapshot: bad support %q in %q", tok, line)
			}
			support[k] = gi
		}
		fg, err := gdec.Decode()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot feature %d graph: %w", fi, err)
		}
		v.Features = append(v.Features, &feature.Feature{
			G: fg, Code: graph.CanonicalCode(fg), Support: support,
		})
	}
	v.Build.Features = len(v.Features)

	line, err = snapLine(sc)
	if err != nil {
		return nil, err
	}
	var hasStruct int
	if _, err := fmt.Sscanf(line, "struct %d", &hasStruct); err != nil {
		return nil, fmt.Errorf("core: snapshot: bad struct header %q", line)
	}
	if hasStruct == 1 {
		ix, err := simsearch.LoadFromScanner(sc, v.Certain)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot: %w", err)
		}
		v.Struct = ix.WithTombstones(tombs)
	}

	line, err = snapLine(sc)
	if err != nil {
		return nil, err
	}
	var hasPMI int
	if _, err := fmt.Sscanf(line, "pmi %d", &hasPMI); err != nil {
		return nil, fmt.Errorf("core: snapshot: bad pmi header %q", line)
	}
	if hasPMI == 1 {
		idx, err := pmi.LoadFromScannerCols(sc, n)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot: %w", err)
		}
		// pmi.Save does not persist options; restore them from the build
		// options so incremental mutations behave exactly as before the
		// round-trip. The tombstone mask is re-applied so dead columns
		// stay masked (their entries were written as uncontained).
		idx.Opt = v.opt.PMI
		v.PMI = idx.WithMaskedColumns(tombs)
		v.Build.IndexSizeBytes = v.PMI.SizeBytes()
	}

	line, err = snapLine(sc)
	if err != nil {
		return nil, err
	}
	if line != "endpgsnap" {
		return nil, fmt.Errorf("core: snapshot: want endpgsnap, got %q", line)
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

	// Inference engines are rebuilt lazily, on first use per slot —
	// junction-tree construction is deterministic, so deferring it
	// changes no answer, and startup stays flat in the corpus size.
	v.newLazyEngines(n)
	return newFromView(v), nil
}

// snapLine reads the next non-blank, non-comment line, trimmed.
func snapLine(sc *bufio.Scanner) (string, error) {
	return graph.ScanNonEmpty(sc, "core: snapshot")
}
