package code2vec

import (
	"reflect"
	"testing"
	"time"

	"reviewsolver/internal/apk"
)

// trainingRelease builds a release whose method names correlate with their
// bodies: send* methods call SmsManager, fetch* methods call URLConnection,
// save* methods write files.
func trainingRelease() *apk.Release {
	b := apk.NewBuilder("com.train", "Train")
	b.Release("1.0", 1, time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	cb := b.Class("com.train.Worker")
	for i := 0; i < 5; i++ {
		cb.Method("sendMessage",
			apk.ConstString("s", "sending"),
			apk.Invoke("", "android.telephony.SmsManager", "sendTextMessage", "s"))
		cb.Method("fetchMail",
			apk.Invoke("c", "java.net.URLConnection", "connect"),
			apk.Invoke("r", "java.net.HttpURLConnection", "getInputStream"))
		cb.Method("savePicture",
			apk.NewObj("f", "java.io.FileOutputStream"),
			apk.Invoke("", "java.io.FileOutputStream", "write", "f"))
	}
	return b.Build().Latest()
}

// obfuscatedMethod returns a method with a meaningless name but a
// recognizable body.
func obfuscatedMethod(body ...apk.Statement) *apk.Method {
	return &apk.Method{Name: "a", Class: "com.train.Obf", Statements: body}
}

func TestExtractContexts(t *testing.T) {
	m := &apk.Method{Name: "sendMail", Statements: []apk.Statement{
		apk.ConstString("s", "hello"),
		apk.Invoke("", "android.telephony.SmsManager", "sendTextMessage", "s"),
	}}
	ctxs := ExtractContexts(m)
	if len(ctxs) == 0 {
		t.Fatal("no contexts extracted")
	}
	// Must include a unary context for the const-string token and a pairwise
	// context crossing the two statements.
	var hasUnary, hasPair bool
	for _, c := range ctxs {
		if c.Path == "self" && c.Target == "hello" {
			hasUnary = true
		}
		if c.Path == "const-string>invoke" {
			hasPair = true
		}
	}
	if !hasUnary || !hasPair {
		t.Errorf("contexts missing unary=%v pair=%v: %+v", hasUnary, hasPair, ctxs)
	}
}

func TestNameWords(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"sendMessage", []string{"send", "message"}},
		{"onCreate", []string{"create"}},
		{"getEmail", []string{"get", "email"}},
		{"a", nil},
	}
	for _, tt := range tests {
		got := nameWords(tt.in)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("nameWords(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestPredictRecoversSemantics(t *testing.T) {
	model := NewModel()
	model.TrainRelease(trainingRelease())
	if model.VocabSize() == 0 {
		t.Fatal("empty vocabulary after training")
	}

	tests := []struct {
		body []apk.Statement
		want string
	}{
		{
			body: []apk.Statement{
				apk.ConstString("s", "sending"),
				apk.Invoke("", "android.telephony.SmsManager", "sendTextMessage", "s"),
			},
			want: "send",
		},
		{
			body: []apk.Statement{
				apk.Invoke("c", "java.net.URLConnection", "connect"),
				apk.Invoke("r", "java.net.HttpURLConnection", "getInputStream"),
			},
			want: "fetch",
		},
		{
			body: []apk.Statement{
				apk.NewObj("f", "java.io.FileOutputStream"),
				apk.Invoke("", "java.io.FileOutputStream", "write", "f"),
			},
			want: "save",
		},
	}
	for _, tt := range tests {
		pred := model.Predict(obfuscatedMethod(tt.body...), 3)
		found := false
		for _, w := range pred {
			if w == tt.want {
				found = true
			}
		}
		if !found {
			t.Errorf("Predict top-3 = %v, want to include %q", pred, tt.want)
		}
	}
}

func TestPredictDeterministic(t *testing.T) {
	model := NewModel()
	model.TrainRelease(trainingRelease())
	m := obfuscatedMethod(apk.Invoke("", "android.telephony.SmsManager", "sendTextMessage"))
	a := model.Predict(m, 5)
	b := model.Predict(m, 5)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("non-deterministic prediction: %v vs %v", a, b)
	}
}

func TestPredictEdgeCases(t *testing.T) {
	model := NewModel()
	if got := model.Predict(obfuscatedMethod(), 3); got != nil {
		t.Errorf("untrained model predicted %v", got)
	}
	model.TrainRelease(trainingRelease())
	if got := model.Predict(obfuscatedMethod(), 3); got != nil {
		t.Errorf("empty body predicted %v", got)
	}
	if got := model.Predict(obfuscatedMethod(apk.Return()), 0); got != nil {
		t.Errorf("k=0 predicted %v", got)
	}
}

func TestEvaluateRecovery(t *testing.T) {
	model := NewModel()
	r := trainingRelease()
	model.TrainRelease(r)
	recovered, total := model.EvaluateRecovery(r, 3)
	if total == 0 {
		t.Fatal("no name words to evaluate")
	}
	frac := float64(recovered) / float64(total)
	// On its own training release the model must recover at least the
	// paper's obfuscation-experiment fraction (34.4%).
	if frac < 0.344 {
		t.Errorf("recovery = %.2f (%d/%d), want >= 0.344", frac, recovered, total)
	}
}

func TestTrainSkipsObfuscatedNames(t *testing.T) {
	model := NewModel()
	b := apk.NewBuilder("p", "n")
	b.Release("1", 1, time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	b.Class("p.C").Method("a", apk.Return()).Method("b", apk.Return())
	model.TrainRelease(b.Build().Latest())
	if model.VocabSize() != 0 {
		t.Errorf("obfuscated names should not train: vocab = %d", model.VocabSize())
	}
}

// EvaluateRecovery measures the fraction of true name words recovered in
// the top-k predictions over a release — the paper's obfuscation
// experiment (§3.3.2 reports 34.4% with real Code2vec).
func (m *Model) EvaluateRecovery(r *apk.Release, k int) (recovered, total int) {
	for _, c := range r.Classes {
		for _, meth := range c.Methods {
			truth := nameWords(meth.Name)
			if len(truth) == 0 {
				continue
			}
			pred := m.Predict(meth, k)
			predSet := make(map[string]struct{}, len(pred))
			for _, w := range pred {
				predSet[w] = struct{}{}
			}
			for _, w := range truth {
				total++
				if _, ok := predSet[w]; ok {
					recovered++
				}
			}
		}
	}
	return recovered, total
}
