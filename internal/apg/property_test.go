package apg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"reviewsolver/internal/apk"
)

// randomRelease builds a release with a random (but structurally valid)
// statement soup, to exercise the graph builder and taint walker on shapes
// the generator never produces.
func randomRelease(seed int64, classes, methodsPerClass, stmtsPerMethod int) *apk.Release {
	rng := rand.New(rand.NewSource(seed))
	b := apk.NewBuilder("com.rand.app", "RandApp")
	b.Release("1.0", 1, time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	vars := []string{"v0", "v1", "v2", "v3", "v4"}
	callees := []struct{ class, method string }{
		{"android.widget.Toast", "makeText"},
		{"android.content.ContentResolver", "query"},
		{"android.app.Activity", "startActivityForResult"},
		{"com.rand.app.C0", "m0"},
		{"java.net.Socket", "connect"},
	}
	for ci := 0; ci < classes; ci++ {
		cb := b.Class(fmt.Sprintf("com.rand.app.C%d", ci))
		for mi := 0; mi < methodsPerClass; mi++ {
			var stmts []apk.Statement
			for si := 0; si < stmtsPerMethod; si++ {
				v := vars[rng.Intn(len(vars))]
				switch rng.Intn(6) {
				case 0:
					stmts = append(stmts, apk.ConstString(v, fmt.Sprintf("str-%d", rng.Intn(50))))
				case 1:
					stmts = append(stmts, apk.NewObj(v, "android.content.Intent"))
				case 2:
					stmts = append(stmts, assign(v, vars[rng.Intn(len(vars))]))
				case 3:
					callee := callees[rng.Intn(len(callees))]
					uses := []string{vars[rng.Intn(len(vars))]}
					stmts = append(stmts, apk.Invoke(v, callee.class, callee.method, uses...))
				case 4:
					stmts = append(stmts, apk.Catch("SomeException"))
				default:
					stmts = append(stmts, apk.Return(vars[rng.Intn(len(vars))]))
				}
			}
			cb.Method(fmt.Sprintf("m%d", mi), stmts...)
		}
	}
	return b.Build().Latest()
}

// TestBackwardTaintTerminatesAndIsDeterministic: the taint walk must
// terminate on arbitrary def-use soup (including self-assignments and
// cycles through reused variable names) and always return the same strings.
func TestBackwardTaintTerminatesAndIsDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r := randomRelease(seed, 3, 4, 20)
		g := Build(r)
		for _, m := range g.Methods() {
			for i, st := range m.Statements {
				if st.Op != apk.OpInvoke {
					continue
				}
				site := Site{Method: m, StmtIdx: i}
				a := g.BackwardStrings(site)
				b := g.BackwardStrings(site)
				if len(a) != len(b) {
					return false
				}
				for k := range a {
					if a[k] != b[k] {
						return false
					}
				}
				// Sorted output.
				for k := 1; k < len(a); k++ {
					if a[k-1] > a[k] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestGraphBuildConsistency: every call site the graph indexes must point
// at a real invoke statement with the indexed callee.
func TestGraphBuildConsistency(t *testing.T) {
	r := randomRelease(99, 4, 5, 30)
	g := Build(r)
	for _, callee := range []struct{ class, method string }{
		{"android.widget.Toast", "makeText"},
		{"com.rand.app.C0", "m0"},
	} {
		for _, site := range g.CallSitesOf(callee.class, callee.method) {
			st := site.Statement()
			if st.Op != apk.OpInvoke || st.InvokeClass != callee.class || st.InvokeMethod != callee.method {
				t.Fatalf("indexed site does not match: %+v", st)
			}
		}
	}
}

// TestSelfAssignmentCycle: v = v chains must not loop the taint walker.
func TestSelfAssignmentCycle(t *testing.T) {
	b := apk.NewBuilder("p", "n")
	b.Release("1", 1, time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	b.Class("p.C").Method("m",
		apk.ConstString("a", "seed"),
		assign("a", "a"),
		assign("b", "a"),
		assign("a", "b"),
		apk.Invoke("", "android.widget.Toast", "makeText", "a"))
	g := Build(b.Build().Latest())
	sites := g.CallSitesOf("android.widget.Toast", "makeText")
	done := make(chan []string, 1)
	go func() { done <- g.BackwardStrings(sites[0]) }()
	select {
	case got := <-done:
		if len(got) == 0 {
			t.Log("cycle resolved with no strings — acceptable (latest def wins)")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("taint walk did not terminate on assignment cycle")
	}
}
