package workload

import (
	"fmt"
	"sort"

	"toss/internal/guest"
)

// registry holds the ten Table I functions, keyed by name.
var registry = map[string]*Spec{}

func register(s *Spec) *Spec {
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate function %q", s.Name))
	}
	registry[s.Name] = s
	return s
}

// Registry returns all functions in Table I order.
func Registry() []*Spec {
	order := []string{
		"float_operation", "pyaes", "json_load_dump", "compress", "linpack",
		"matmul", "image_processing", "pagerank", "lr_serving", "lr_training",
	}
	out := make([]*Spec, 0, len(order))
	for _, name := range order {
		out = append(out, registry[name])
	}
	return out
}

// Names returns all registered function names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName looks a function up by its Table I name.
func ByName(name string) (*Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// ByNameMust looks a function up, panicking on unknown names; for callers
// holding compile-time-constant names.
func ByNameMust(name string) *Spec {
	s, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown function %q", name))
	}
	return s
}

// kib and mib convert sizes for input tables.
func kib(n int64) int64 { return n << 10 }
func mib(n int64) int64 { return n << 20 }

// float_operation: floating point ops for N numbers. Tiny footprint, pure
// interpreter loop — CPU-bound and short-running; the canonical "runs in the
// slow tier for free" function (Fig. 2 observation #1).
var _ = register(&Spec{
	Name:        "float_operation",
	Description: "Floating point ops for N numbers",
	MemBytes:    mib(128),
	InputType:   "N",
	InputLabels: [4]string{"10", "100", "1000", "10000"},
	runtime:     defaultRuntime(60),
	body: func(b *builder, lv Level) {
		n := []int64{10, 100, 1000, 10000}[lv]
		arr := b.allocBytes(n * 8)
		repeat := b.jitter(60, 0.15)
		// sin/cos/sqrt per element: heavy CPU per line, near-perfect reuse.
		b.seqRead(arr, repeat, 0.95, 18)
		b.seqWrite(arr, repeat/2+1, 0.95, 10)
	},
})

// pyaes: pure-Python AES encryption of a text. Interpreter-dominated; the
// S-box tables live in cache. Footprint barely grows with input.
var _ = register(&Spec{
	Name:        "pyaes",
	Description: "AES text encryption",
	MemBytes:    mib(128),
	InputType:   "Text",
	InputLabels: [4]string{"64 chars", "256 chars", "1024 chars", "4096 chars"},
	runtime:     defaultRuntime(400),
	body: func(b *builder, lv Level) {
		chars := []int64{64, 256, 1024, 4096}[lv]
		text := b.allocBytes(chars)
		tables := b.allocBytes(kib(32)) // S-boxes + round keys + scratch
		blocks := int(chars / 16)
		if blocks < 1 {
			blocks = 1
		}
		repeat := b.jitter(blocks, 0.1)
		b.randRead(tables, 32, repeat, 0.97, 30)
		b.seqRead(text, b.jitter(10, 0.1), 0.9, 12)
		b.seqWrite(text, b.jitter(10, 0.1), 0.9, 8)
	},
})

// json_load_dump: read-modify-write N JSON files. Footprint scales with the
// file count; parsing scatters small objects over the heap.
var _ = register(&Spec{
	Name:        "json_load_dump",
	Description: "Read-Modify-Write JSON files",
	MemBytes:    mib(128),
	InputType:   "JSON File",
	InputLabels: [4]string{"1 file", "10 files", "20 files", "40 files"},
	runtime:     defaultRuntime(10),
	body: func(b *builder, lv Level) {
		files := []int64{1, 10, 20, 40}[lv]
		const fileBytes = int64(1) << 19 // 512 KiB per JSON file
		for i := int64(0); i < files; i++ {
			buf := b.allocBytes(fileBytes)
			objects := b.allocBytes(3 * fileBytes / 2) // parsed object graph
			// json.load: C parser streaming the buffer, Python-object churn.
			b.seqRead(buf, 1, 0.3, 150)
			// Parse: bump-pointer object allocation is sequential writes
			// with heavy per-object compute.
			b.seqWrite(objects, b.jitter(4, 0.2), 0.70, 100)
			// Modify: scattered reads over the object graph.
			b.randRead(objects, 8, b.jitter(2, 0.2), 0.85, 80)
			// Dump.
			b.seqRead(objects, 1, 0.55, 90)
			b.seqWrite(buf, 1, 0.3, 120)
		}
	},
})

// compress: stream compression of a file. Pure streaming with heavy
// per-byte compute — negligible slowdown fully offloaded (Fig. 2).
var _ = register(&Spec{
	Name:        "compress",
	Description: "File compression",
	MemBytes:    mib(256),
	InputType:   "File",
	InputLabels: [4]string{"10 MB", "20 MB", "41 MB", "82 MB"},
	runtime:     defaultRuntime(12),
	body: func(b *builder, lv Level) {
		in := b.allocBytes(mib([]int64{10, 20, 41, 82}[lv]))
		out := b.allocBytes(in.Bytes() / 2)
		window := b.allocBytes(kib(256)) // LZ dictionary window, cache-hot
		// zlib-style compression: ~1 µs of matching work per 64 B line
		// dwarfs the memory service — the paper's "negligible slowdown
		// fully offloaded" function.
		b.seqRead(in, 1, 0.25, 800)
		b.randRead(window, 64, b.jitter(int(in.Pages/64)+1, 0.1), 0.96, 20)
		b.seqWrite(out, 1, 0.25, 400)
	},
})

// linpack: solve Ax=b. O(n^3) compute over an n^2 matrix with strong
// blocking — high reuse shields most latency.
var _ = register(&Spec{
	Name:        "linpack",
	Description: "Solves Ax=b for matrix A",
	MemBytes:    mib(256),
	InputType:   "Dimension",
	InputLabels: [4]string{"100", "500", "1000", "2000"},
	runtime:     defaultRuntime(60),
	body: func(b *builder, lv Level) {
		n := []int64{100, 500, 1000, 2000}[lv]
		matrix := b.allocBytes(n * n * 8)
		vec := b.allocBytes(2 * n * 8)
		passes := b.jitter(int(n/125)+2, 0.1)
		// Panel factorization: mostly-sequential sweeps with good reuse.
		b.seqRead(matrix, passes, 0.93, 8)
		b.seqWrite(matrix, passes/2+1, 0.93, 9)
		// Pivot search: scattered column walks over a cached panel.
		b.randRead(matrix, 2, passes, 0.90, 3)
		b.seqRead(vec, passes*4, 0.95, 4)
	},
})

// matmul: C = A x B. The output tiles and B panels are re-touched heavily —
// a clear hot subset that TOSS keeps in DRAM (Table II: 92% offloaded).
var _ = register(&Spec{
	Name:        "matmul",
	Description: "Product of two 2D matrices",
	MemBytes:    mib(256),
	InputType:   "Dimension",
	InputLabels: [4]string{"100", "500", "1000", "2000"},
	runtime:     defaultRuntime(50),
	body: func(b *builder, lv Level) {
		n := []int64{100, 500, 1000, 2000}[lv]
		bytes := n * n * 8
		a := b.allocBytes(bytes)
		bm := b.allocBytes(bytes)
		c := b.allocBytes(bytes)
		sweeps := b.jitter(int(n/170)+2, 0.1)
		// A streamed once per block column; panel reuse shields latency.
		b.seqRead(a, sweeps, 0.90, 4)
		// B walked down columns: strided but tile-cached.
		b.randRead(bm, 8, sweeps, 0.95, 3)
		// C accumulated tile by tile — row-major within a tile, re-written
		// every sweep: the hot tier-worthy subset.
		b.chunked(c, 4, func(chunk guest.Region, i int) {
			b.seqWrite(chunk, b.jitter(sweeps*4, 0.1), 0.80, 4)
		})
	},
})

// image_processing: flip an image. Decode streams, the flip walks rows in
// reverse order (cache-hostile), and run-to-run variability is high — the
// paper calls out its latency variability repeatedly.
var _ = register(&Spec{
	Name:        "image_processing",
	Description: "Flips the input image",
	MemBytes:    mib(256),
	InputType:   "Image",
	InputLabels: [4]string{"43 kB", "315 kB", "1.8 MB", "4.1 MB"},
	runtime:     defaultRuntime(8),
	body: func(b *builder, lv Level) {
		fileBytes := []int64{kib(43), kib(315), mib(1) + kib(800), mib(4) + kib(100)}[lv]
		bitmapBytes := fileBytes * 8 // decoded RGB
		in := b.allocBytes(fileBytes)
		bitmap := b.allocBytes(bitmapBytes)
		flipped := b.allocBytes(bitmapBytes)
		out := b.allocBytes(fileBytes)
		b.seqRead(in, 1, 0.3, 40)
		// Decode: sequential write, JPEG decode compute per line.
		b.seqWrite(bitmap, b.jitter(2, 0.3), 0.45, 120)
		// Flip: rows copied in reverse order — sequential at line
		// granularity, moderate compute, high run-to-run variance.
		b.seqRead(bitmap, b.jitter(3, 0.3), 0.35, 25)
		b.seqWrite(flipped, b.jitter(3, 0.3), 0.60, 30)
		// Encode.
		b.seqRead(flipped, 1, 0.4, 50)
		b.seqWrite(out, 1, 0.3, 40)
	},
})

// pagerank: iterative rank computation over a large graph. Uniformly
// intense random access across the whole footprint — the paper's worst case
// (only 49.1% offloadable, 25% slowdown at min cost).
var _ = register(&Spec{
	Name:        "pagerank",
	Description: "Pagerank on a graph",
	MemBytes:    mib(1024),
	InputType:   "Vertices",
	InputLabels: [4]string{"90,000", "180,000", "360,000", "720,000"},
	runtime:     defaultRuntime(25),
	body: func(b *builder, lv Level) {
		v := []int64{90_000, 180_000, 360_000, 720_000}[lv]
		const edgesPerVertex = 150
		edges := b.allocBytes(v * edgesPerVertex * 8)
		offsets := b.allocBytes(v * 8)
		ranks := b.allocBytes(2 * v * 8)
		iters := b.jitter(12, 0.1)
		// The high-degree core of the graph (most edges, most accesses) and
		// a lower-degree tail: "the same intensity across most of its
		// working set" (§VI-C1), with only the tail cheap enough to offload.
		core, tail := edges.Split(edges.Pages * 60 / 100)
		b.randRead(core, 64, iters, 0.12, 1)
		b.randRead(tail, 12, iters, 0.12, 1)
		b.seqRead(offsets, iters, 0.6, 1)
		b.randRead(ranks, 64, iters*edgesPerVertex/8, 0.30, 1)
		b.randWrite(ranks, 64, iters, 0.30, 1)
	},
})

// lrSizes returns (modelBytes, datasetBytes) per level for the logistic
// regression pair.
func lrSizes(lv Level) (int64, int64) {
	model := []int64{kib(51), kib(83), kib(128), kib(192)}[lv]
	data := []int64{mib(10), mib(20), mib(41), mib(82)}[lv]
	return model, data
}

// lr_serving: logistic regression inference. One streaming pass over the
// dataset; the tiny model is white-hot.
var _ = register(&Spec{
	Name:        "lr_serving",
	Description: "Logistic regression inferencing",
	MemBytes:    mib(1024),
	InputType:   "Model & Dataset Files",
	InputLabels: [4]string{"51 kB/10 MB", "83 kB/20 MB", "128 kB/41 MB", "192 kB/82 MB"},
	runtime:     defaultRuntime(80),
	body: func(b *builder, lv Level) {
		modelBytes, dataBytes := lrSizes(lv)
		model := b.allocBytes(modelBytes)
		data := b.allocBytes(dataBytes)
		preds := b.allocBytes(dataBytes / 128)
		rows := int(dataBytes / 1024)
		b.seqRead(data, 1, 0.40, 15)
		// Model lookups per row: latency-bound, the hot fast-tier slice.
		b.randRead(model, 64, b.jitter(rows/64+1, 0.1), 0.92, 2)
		b.seqWrite(preds, 1, 0.6, 5)
	},
})

// lr_training: logistic regression training. Several epochs over the
// dataset with gradient writes into the model.
var _ = register(&Spec{
	Name:        "lr_training",
	Description: "Logistic regression training",
	MemBytes:    mib(1024),
	InputType:   "Model & Dataset Files",
	InputLabels: [4]string{"51 kB/10 MB", "83 kB/20 MB", "128 kB/41 MB", "192 kB/82 MB"},
	runtime:     defaultRuntime(20),
	body: func(b *builder, lv Level) {
		modelBytes, dataBytes := lrSizes(lv)
		model := b.allocBytes(modelBytes)
		data := b.allocBytes(dataBytes)
		grads := b.allocBytes(modelBytes)
		epochs := b.jitter(8, 0.1)
		rows := int(dataBytes / 1024)
		// SGD epochs stream the dataset; vectorized gradient math keeps
		// the model and gradient buffers cache-resident.
		b.seqRead(data, epochs, 0.75, 40)
		b.randRead(model, 64, b.jitter(rows/48+1, 0.1), 0.97, 20)
		b.randWrite(grads, 64, b.jitter(rows/48+1, 0.1), 0.97, 20)
	},
})
