package ml

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// Serialization mirrors the unexported tree structures through exported
// DTOs so trained models can be shipped (the paper: "We will open-source
// the pre-trained models for research community").

type nodeDTO struct {
	Feature   int32
	Threshold float64
	Left      int32
	Right     int32
	Value     float64
}

type treeDTO struct {
	Cfg        TreeConfig
	Classes    int
	Nodes      []nodeDTO
	Importance []float64
}

type forestDTO struct {
	Version int
	Cfg     ForestConfig
	Trees   []treeDTO
}

const forestFormatVersion = 1

// Decode-side resource caps. Model files come over trust boundaries —
// shipped checkpoints, operator uploads, and tevot-serve's /admin/reload
// endpoint — so the loader must bound what a hostile stream can make it
// allocate. MaxForestBytes caps the bytes the gob decoder may consume
// (gob's own claimed-length-vs-input check then bounds any single slice
// allocation to the same budget); the count caps below reject forests
// that are structurally absurd even when they fit the byte budget.
const (
	// MaxForestBytes is the largest serialized forest LoadForest will
	// read. The 10-tree regression forests of the reduced-scale runs
	// (about 74,500 nodes, some 14 bytes each) are about 1 MiB, so
	// 64 MiB leaves over an order of magnitude of headroom. A
	// paper-scale forest, about 2.5e8 nodes, is far over this cap and
	// maxForestNodes: LoadForest refuses it.
	MaxForestBytes int64 = 64 << 20
	// maxForestTrees bounds the ensemble size on load.
	maxForestTrees = 4096
	// maxForestNodes bounds the total node count across the ensemble.
	maxForestNodes = 8 << 20
)

// errForestTooLarge reports a stream that ran past MaxForestBytes.
var errForestTooLarge = fmt.Errorf("ml: serialized forest exceeds the %d MiB size cap", MaxForestBytes>>20)

// CappedReader returns a reader over r that fails with errCap past
// budget bytes, so a decoder driven by a decompression-bomb-style
// stream stops at the cap instead of allocating without bound. The
// reader implements io.ByteReader so gob does not wrap it in a
// bufio.Reader: a model file chains gob streams (core's header, then
// the forest), and readahead past one would steal bytes from the
// decoder that reads the next.
func CappedReader(r io.Reader, budget int64, errCap error) io.Reader {
	return &cappedReader{r: r, remaining: budget, errCap: errCap}
}

type cappedReader struct {
	r         io.Reader
	remaining int64
	errCap    error
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, c.errCap
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.r.Read(p)
	c.remaining -= int64(n)
	return n, err
}

func (c *cappedReader) ReadByte() (byte, error) {
	var b [1]byte
	for {
		n, err := c.Read(b[:])
		if n == 1 {
			return b[0], nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// nodesToDTO writes a tree's compiled nodes as DTO nodes: a split's
// children are kid and kid+1, and its Value, which no walk reads, is 0.
func nodesToDTO(nodes []cnode) []nodeDTO {
	dto := make([]nodeDTO, len(nodes))
	for i, n := range nodes {
		if n.feat < 0 {
			dto[i] = nodeDTO{Feature: -1, Value: n.v}
		} else {
			dto[i] = nodeDTO{Feature: n.feat, Threshold: n.v, Left: n.kid, Right: n.kid + 1}
		}
	}
	return dto
}

func treeFromDTO(dto treeDTO) (*DecisionTree, error) {
	if len(dto.Nodes) == 0 {
		return nil, fmt.Errorf("ml: corrupt tree: no nodes")
	}
	t := &DecisionTree{cfg: dto.Cfg, classes: dto.Classes, nodes: make([]node, len(dto.Nodes)), importance: dto.Importance}
	hasParent := make([]bool, len(dto.Nodes))
	for i, n := range dto.Nodes {
		if n.Feature >= 0 {
			// The builder appends children after their parent, so any
			// valid tree has strictly increasing child indices. Enforcing
			// that on load guarantees the tree is acyclic — a crafted or
			// corrupted DTO cannot make Predict loop forever.
			if int(n.Left) >= len(dto.Nodes) || int(n.Right) >= len(dto.Nodes) ||
				n.Left <= int32(i) || n.Right <= int32(i) {
				return nil, fmt.Errorf("ml: corrupt tree: node %d children out of range", i)
			}
			// One parent per node keeps it a tree, not a DAG, so
			// compiling it cannot copy a shared subtree exponentially.
			if hasParent[n.Left] || hasParent[n.Right] || n.Left == n.Right {
				return nil, fmt.Errorf("ml: corrupt tree: node %d shares a child", i)
			}
			hasParent[n.Left], hasParent[n.Right] = true, true
			if int(n.Feature) >= len(dto.Importance) && len(dto.Importance) > 0 {
				return nil, fmt.Errorf("ml: corrupt tree: node %d feature %d outside importance vector", i, n.Feature)
			}
		}
		t.nodes[i] = node{n.Feature, n.Threshold, n.Left, n.Right, n.Value}
	}
	return t, nil
}

// Save serializes the fitted forest with encoding/gob, each tree as its
// compiled nodes in breadth-first order, with the forest's class count.
// The config's Workers is how the fit ran, not what it learned, so it
// is saved as 0: same-seed fits save the same bytes at any worker
// count, and a loaded forest predicts with the default fan-out.
func (f *RandomForest) Save(w io.Writer) error {
	if f.compiled == nil {
		return fmt.Errorf("ml: cannot save an unfitted forest")
	}
	cfg := f.cfg
	cfg.Workers = 0
	cf := f.compiled
	dto := forestDTO{Version: forestFormatVersion, Cfg: cfg, Trees: make([]treeDTO, len(cf.trees))}
	for i, nodes := range cf.trees {
		dto.Trees[i] = treeDTO{Cfg: f.treeConfig(i), Classes: cf.classes, Nodes: nodesToDTO(nodes), Importance: f.importance[i]}
	}
	return gob.NewEncoder(w).Encode(dto)
}

// LoadForest deserializes a forest saved with Save. Corrupted input
// yields an error, never a panic: gob's panics on malformed streams are
// recovered, the stream is capped at MaxForestBytes so a hostile input
// cannot drive unbounded allocation, and the decoded trees are
// structurally validated (node/tree count caps, child-index ordering)
// so a damaged forest cannot send Predict out of range or into a cycle.
func LoadForest(r io.Reader) (f *RandomForest, err error) {
	defer func() {
		if p := recover(); p != nil {
			f, err = nil, fmt.Errorf("ml: corrupt forest data: %v", p)
		}
	}()
	var dto forestDTO
	if err := gob.NewDecoder(CappedReader(r, MaxForestBytes, errForestTooLarge)).Decode(&dto); err != nil {
		if errors.Is(err, errForestTooLarge) {
			return nil, errForestTooLarge
		}
		return nil, fmt.Errorf("ml: decoding forest: %w", err)
	}
	if dto.Version != forestFormatVersion {
		return nil, fmt.Errorf("ml: unsupported forest format version %d", dto.Version)
	}
	if len(dto.Trees) == 0 {
		return nil, fmt.Errorf("ml: saved forest has no trees")
	}
	if len(dto.Trees) > maxForestTrees {
		return nil, fmt.Errorf("ml: saved forest has %d trees (cap %d)", len(dto.Trees), maxForestTrees)
	}
	totalNodes := 0
	for _, td := range dto.Trees {
		totalNodes += len(td.Nodes)
	}
	if totalNodes > maxForestNodes {
		return nil, fmt.Errorf("ml: saved forest has %d nodes (cap %d)", totalNodes, maxForestNodes)
	}
	// Lay each tree out exactly as Fit does, so a shipped model predicts
	// at full speed.
	cf := &compiledForest{trees: make([][]cnode, len(dto.Trees)), mode: dto.Cfg.Tree.Mode}
	f = &RandomForest{cfg: dto.Cfg, compiled: cf, importance: make([][]float64, len(dto.Trees))}
	for i, td := range dto.Trees {
		t, err := treeFromDTO(td)
		if err != nil {
			return nil, err
		}
		cf.trees[i] = layout(t.nodes)
		cf.classes = max(cf.classes, t.classes)
		f.importance[i] = t.importance
	}
	return f, nil
}
