package workload

// bTree is a WHISPER-style persistent B-tree. Nodes are real (keys are
// compared, nodes split) and each node occupies a 512-byte region of the
// persistent heap, so traversals and splits generate the memory trace a
// PMDK B-tree would: a burst of loads down the search path, stores to
// the modified leaf (plus its undo-log records), and occasional
// multi-node bursts on splits.
type bTree struct {
	h      *heap
	r      *rng
	txSize int
	log    *undoLog

	root      *bnode
	vals      map[uint64]int64 // key -> value address
	keys      keyPicker
	setupKeys int
	setup     bool // bulk-load mode: skip undo logging
}

const (
	btreeOrder     = 8 // children per node
	btreeNodeBytes = 512
)

type bnode struct {
	addr     int64
	leaf     bool
	keys     []uint64
	children []*bnode
}

func newBTree(h *heap, r *rng, p Params) *bTree {
	t := &bTree{h: h, r: r, txSize: p.TxSize, setupKeys: p.SetupKeys,
		vals: make(map[uint64]int64), keys: newKeyPicker(r, p.SetupKeys)}
	t.log = newUndoLog(h, 64<<10)
	t.root = t.newNode(true)
	return t
}

func (t *bTree) Name() string     { return "btree" }
func (t *bTree) Footprint() int64 { return t.h.footprint() }

func (t *bTree) newNode(leaf bool) *bnode {
	return &bnode{addr: t.h.alloc(btreeNodeBytes), leaf: leaf}
}

// Setup bulk-loads the initial key population (the hot set plus a tail
// sample) without undo logging — the fast-forward phase is not measured
// and bulk loads legitimately skip transactional logging.
func (t *bTree) Setup(s Sink) {
	t.setup = true
	for i := 0; i < t.setupKeys; i++ {
		t.put(s, t.keys.setupKey(i))
	}
	t.setup = false
}

// Tx performs one transactional put: an update of an existing key or an
// insert of a new one, with undo logging.
func (t *bTree) Tx(s Sink) {
	t.put(s, t.keys.pick())
}

func (t *bTree) put(s Sink, key uint64) {
	// Search path: load each node header region.
	n := t.root
	path := []*bnode{n}
	for !n.leaf {
		s.Load(n.addr, btreeNodeBytes)
		n = n.children[t.childIndex(n, key)]
		path = append(path, n)
	}
	s.Load(n.addr, btreeNodeBytes)

	if vaddr, ok := t.vals[key]; ok {
		// Update in place: log old value, write new value, commit.
		if !t.setup {
			t.log.logOld(s, int64(t.txSize))
			s.Fence()
		}
		writePayload(s, vaddr, int64(t.txSize))
		s.Fence()
		if !t.setup {
			t.log.commit(s)
		}
		return
	}

	// Insert: log the leaf, write the value, modify the leaf, splitting
	// upward as needed.
	vaddr := t.h.alloc(int64(t.txSize))
	t.vals[key] = vaddr
	if !t.setup {
		t.log.logOld(s, btreeNodeBytes)
		s.Fence()
	}
	writePayload(s, vaddr, int64(t.txSize))

	insertSorted(&n.keys, key)
	s.Store(n.addr, btreeNodeBytes)
	s.Persist(n.addr, btreeNodeBytes)

	// Split full nodes bottom-up.
	for i := len(path) - 1; i >= 0 && len(path[i].keys) >= btreeOrder; i-- {
		t.split(s, path, i)
	}
	s.Fence()
	if !t.setup {
		t.log.commit(s)
	}
}

// childIndex returns which child of an internal node covers key.
func (t *bTree) childIndex(n *bnode, key uint64) int {
	i := 0
	for i < len(n.keys) && key >= n.keys[i] {
		i++
	}
	return i
}

// split divides the overfull node path[i], writing all affected nodes.
func (t *bTree) split(s Sink, path []*bnode, i int) {
	n := path[i]
	mid := len(n.keys) / 2
	midKey := n.keys[mid]

	right := t.newNode(n.leaf)
	right.keys = append(right.keys, n.keys[mid+1:]...)
	if !n.leaf {
		right.children = append(right.children, n.children[mid+1:]...)
	}
	if n.leaf {
		// Leaf split keeps the separator in the right sibling.
		right.keys = append([]uint64{midKey}, right.keys...)
	}
	n.keys = n.keys[:mid]
	if !n.leaf {
		n.children = n.children[:mid+1]
	}

	if !t.setup {
		t.log.logOld(s, btreeNodeBytes)
	}
	s.Store(n.addr, btreeNodeBytes)
	s.Persist(n.addr, btreeNodeBytes)
	s.Store(right.addr, btreeNodeBytes)
	s.Persist(right.addr, btreeNodeBytes)

	var parent *bnode
	if i == 0 {
		parent = t.newNode(false)
		parent.children = append(parent.children, n)
		t.root = parent
	} else {
		parent = path[i-1]
	}
	idx := t.childIndex(parent, midKey)
	insertSorted(&parent.keys, midKey)
	parent.children = append(parent.children, nil)
	copy(parent.children[idx+2:], parent.children[idx+1:])
	parent.children[idx+1] = right
	s.Store(parent.addr, btreeNodeBytes)
	s.Persist(parent.addr, btreeNodeBytes)
}

// Get reports whether key is present (functional check for tests).
func (t *bTree) Get(key uint64) bool {
	_, ok := t.vals[key]
	return ok
}

// Depth returns the tree height (tests verify balance).
func (t *bTree) Depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}

// checkSorted verifies every node's keys are sorted (test invariant).
func (t *bTree) checkSorted() bool {
	var walk func(n *bnode) bool
	walk = func(n *bnode) bool {
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return false
			}
		}
		if !n.leaf {
			if len(n.children) != len(n.keys)+1 {
				return false
			}
			for _, ch := range n.children {
				if !walk(ch) {
					return false
				}
			}
		}
		return true
	}
	return walk(t.root)
}

// insertSorted inserts key into a sorted slice, ignoring duplicates.
func insertSorted(keys *[]uint64, key uint64) {
	ks := *keys
	i := 0
	for i < len(ks) && ks[i] < key {
		i++
	}
	if i < len(ks) && ks[i] == key {
		return
	}
	ks = append(ks, 0)
	copy(ks[i+1:], ks[i:])
	ks[i] = key
	*keys = ks
}
