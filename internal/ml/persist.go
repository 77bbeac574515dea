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
	// read. The paper's 10-tree regression forests are a few MiB; 64 MiB
	// leaves two orders of magnitude of headroom.
	MaxForestBytes int64 = 64 << 20
	// maxForestTrees bounds the ensemble size on load.
	maxForestTrees = 4096
	// maxForestNodes bounds the total node count across the ensemble.
	maxForestNodes = 8 << 20
)

// errForestTooLarge reports a stream that ran past MaxForestBytes.
var errForestTooLarge = fmt.Errorf("ml: serialized forest exceeds the %d MiB size cap", MaxForestBytes>>20)

// cappedReader fails any read past its budget, so a decoder driven by a
// decompression-bomb-style stream stops at the cap instead of
// allocating without bound. It implements io.ByteReader so gob does not
// wrap it in a bufio.Reader: the forest is the tail of a chained model
// stream, and readahead past it would corrupt any decoder that follows.
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

func (t *DecisionTree) toDTO() treeDTO {
	dto := treeDTO{Cfg: t.cfg, Classes: t.classes, Nodes: make([]nodeDTO, len(t.nodes)), Importance: t.importance}
	for i, n := range t.nodes {
		dto.Nodes[i] = nodeDTO{n.feature, n.threshold, n.left, n.right, n.value}
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

// Save serializes the fitted forest with encoding/gob.
func (f *RandomForest) Save(w io.Writer) error {
	if len(f.trees) == 0 {
		return fmt.Errorf("ml: cannot save an unfitted forest")
	}
	dto := forestDTO{Version: forestFormatVersion, Cfg: f.cfg, Trees: make([]treeDTO, len(f.trees))}
	for i, t := range f.trees {
		dto.Trees[i] = t.toDTO()
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
	cr := &cappedReader{r: r, remaining: MaxForestBytes, errCap: errForestTooLarge}
	if err := gob.NewDecoder(cr).Decode(&dto); err != nil {
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
	f = &RandomForest{cfg: dto.Cfg, trees: make([]*DecisionTree, len(dto.Trees))}
	for i, td := range dto.Trees {
		t, err := treeFromDTO(td)
		if err != nil {
			return nil, err
		}
		f.trees[i] = t
	}
	// Compile the loaded ensemble exactly as Fit does, so a shipped
	// model predicts at full speed.
	f.arena = compile(f.trees, f.cfg.Tree.Mode)
	return f, nil
}
