package workloads

import (
	"fmt"
	"math"
	"testing"

	"github.com/celltrace/pdt/internal/cell"
)

// The host loops run several independent chains per pass, and each must
// give exactly what its one-chain form gives: Verify checks the results
// and the trace digests pin the bytes. The one-chain forms are kept here
// as the references.

func lcgOneChain(dst []byte, seed uint32) {
	x := seed | 1
	for i := range dst {
		x = x*1664525 + 1013904223
		dst[i] = byte(x >> 24)
	}
}

func lcgFloatsOneChain(dst []float32, seed uint32) {
	x := seed | 1
	for i := range dst {
		x = x*1664525 + 1013904223
		dst[i] = float32(int32(x))/(1<<31) + 0
	}
}

// tileMulAddOneStep is the one-step kernel: c += a*b, each element adding
// its products in k order, each product rounded on its own.
func tileMulAddOneStep(c, a, b []float32, t int) {
	for i := 0; i < t; i++ {
		for k := 0; k < t; k++ {
			av := a[i*t+k]
			if av == 0 {
				continue
			}
			for j := 0; j < t; j++ {
				c[i*t+j] += float32(av * b[k*t+j])
			}
		}
	}
}

var lcgSeeds = []uint32{0, 1, 7, 12345, 0xffffffff}

func TestLCGMatchesOneChain(t *testing.T) {
	for _, seed := range lcgSeeds {
		for n := 0; n <= 70; n++ {
			got, want := make([]byte, n), make([]byte, n)
			lcg(got, seed)
			lcgOneChain(want, seed)
			if string(got) != string(want) {
				t.Fatalf("lcg(len %d, seed %#x) = %x, want %x", n, seed, got, want)
			}
			gotF, wantF := make([]float32, n), make([]float32, n)
			lcgFloats(gotF, seed)
			lcgFloatsOneChain(wantF, seed)
			for i := range wantF {
				if math.Float32bits(gotF[i]) != math.Float32bits(wantF[i]) {
					t.Fatalf("lcgFloats(len %d, seed %#x)[%d] = %g, want %g", n, seed, i, gotF[i], wantF[i])
				}
			}
		}
	}
}

func TestFnvRounds4MatchesFnvRounds(t *testing.T) {
	var src [4][]byte
	for b := range src {
		src[b] = make([]byte, 300)
		lcg(src[b], uint32(b)+3)
	}
	for n := 0; n <= 300; n++ {
		b0, b1, b2, b3 := src[0][:n], src[1][:n], src[2][:n], src[3][:n]
		for r := uint32(0); r <= maxTaskRounds; r++ {
			h0, h1, h2, h3 := fnvRounds4(b0, b1, b2, b3, r)
			got := [4]uint32{h0, h1, h2, h3}
			want := [4]uint32{fnvRounds(b0, r), fnvRounds(b1, r), fnvRounds(b2, r), fnvRounds(b3, r)}
			if got != want {
				t.Fatalf("fnvRounds4(len %d, rounds %d) = %#x, want %#x", n, r, got, want)
			}
		}
	}
}

// TestTaskFarmExpectedMatchesPerTask compares the digests TaskFarm.Prepare
// expects with the per-task loop that draws each task's weight and hashes
// its block alone.
func TestTaskFarmExpectedMatchesPerTask(t *testing.T) {
	for _, tasks := range []int{1, 3, 5, 256} {
		w := NewTaskFarm()
		if err := w.Configure(map[string]string{"tasks": fmt.Sprint(tasks)}); err != nil {
			t.Fatal(err)
		}
		mc := cell.DefaultConfig()
		mc.MemSize = 4 * cell.MiB
		m := cell.NewMachine(mc)
		if err := w.Prepare(m); err != nil {
			t.Fatal(err)
		}
		if len(w.expected) != tasks {
			t.Fatalf("tasks=%d: %d expected digests", tasks, len(w.expected))
		}
		x := uint32(w.Seed)
		for task := 0; task < tasks; task++ {
			x = x*1664525 + 1013904223
			rounds := 1 + x%8
			if w.rounds[task] != rounds {
				t.Fatalf("tasks=%d: task %d has %d rounds, want %d", tasks, task, w.rounds[task], rounds)
			}
			block := m.Mem()[w.inEA+uint64(task*w.BlockBytes) : w.inEA+uint64((task+1)*w.BlockBytes)]
			if got, want := w.expected[uint32(task)], fnvRounds(block, rounds); got != want {
				t.Fatalf("tasks=%d: task %d expects %#x, want %#x", tasks, task, got, want)
			}
		}
	}
}

// TestTileMulAddMatchesOneStep covers tile sizes the matmul workload
// rejects (not a multiple of 4), so the kernel's one-step tail runs too,
// with a zero in about one a entry in five. One b entry is infinite: a
// zero a entry must skip it, not add 0*Inf = NaN.
func TestTileMulAddMatchesOneStep(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 13} {
		a, b := make([]float32, n*n), make([]float32, n*n)
		lcgFloats(a, uint32(n))
		lcgFloats(b, uint32(n)+1)
		for i := range a {
			if i%5 == 2 {
				a[i] = 0
			}
		}
		b[n/2*n] = float32(math.Inf(1))
		got, want := make([]float32, n*n), make([]float32, n*n)
		lcgFloats(got, 99)
		copy(want, got)
		tileMulAdd(got, a, b, n)
		tileMulAddOneStep(want, a, b, n)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("t=%d: c[%d] = %g, want %g", n, i, got[i], want[i])
			}
		}
	}
}
