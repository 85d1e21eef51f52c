package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/store"
)

// Golden values of one paper-parameter Gen (a=100, k=4, v=500, t=100,
// n=5000) at a fixed template, coin stream and extractor seed. They pin
// every byte the system stores or sends for an enrolled user: the sketch
// movements, the robust digest, the extracted key, the Challenge frame
// and the WAL/snapshot record. A change to any of them would invalidate
// existing WALs, snapshots and enrolled keys, so these constants must
// never be edited to make a test pass.
const (
	goldenMovementsSHA = "98beff656c9052ba6c7428cedfd347ca83cbf3379d95a4c539d9fa7966146f42"
	goldenBoundaries   = 111
	goldenDigest       = "f4960627de9b9a5e1f2ee68d914433fc41e699dc2b1980ab53707924a7c0dfd1"
	goldenKey          = "3160a60ff6969eae49a3082f7bf863271e77027149267266677be552fe70edc7"
	goldenChallengeSHA = "83638ece8781dd5ba427382c5ad4febb28fe0b8c1d23bcef52aa7ae7571e6dcd"
	goldenChallengeLen = 40093
	goldenRecordSHA    = "8457ee09689d113a6ab9a7dd83f1cefad14690b0f64dff202298fdbce5e012e2"
	goldenRecordLen    = 40104
)

// goldenTemplate is a uniform paper-dimension template with interval
// edges planted at every 50th coordinate, so the coin-flip special cases
// are exercised, plus both ends of the line.
func goldenTemplate(l *numberline.Line) numberline.Vector {
	rng := rand.New(rand.NewSource(31))
	x := make(numberline.Vector, 5000)
	for i := range x {
		x[i] = l.Min() + rng.Int63n(l.RingSize())
	}
	span := l.IntervalSpan()
	for i := 0; i < len(x); i += 50 {
		x[i] = l.Max() - int64(i/50)*span*3
	}
	x[1], x[2] = l.Max(), l.Min()
	return x
}

func goldenGen(t *testing.T) (*core.FuzzyExtractor, numberline.Vector, []byte, *core.HelperData) {
	t.Helper()
	seed := func(n int) ([]byte, error) {
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(i*7 + 3)
		}
		return s, nil
	}
	fe, err := core.New(core.PaperParams(),
		core.WithCoins(rand.New(rand.NewSource(7))), core.WithSeedSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	x := goldenTemplate(fe.Line())
	key, helper, err := fe.Gen(x)
	if err != nil {
		t.Fatal(err)
	}
	return fe, x, key, helper
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func TestGoldenPaperGen(t *testing.T) {
	fe, x, key, helper := goldenGen(t)
	l := fe.Line()

	mv := helper.Sketch.Sketch.Movements
	raw := make([]byte, 8*len(mv))
	boundaries := 0
	for i, m := range mv {
		binary.BigEndian.PutUint64(raw[8*i:], uint64(m))
		if l.IsBoundary(x[i]) {
			boundaries++
		}
	}
	challenge, err := Marshal(&Challenge{Helper: helper, Challenge: []byte("golden-challenge")})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEncoder(64)
	EncodeRecord(e, &store.Record{ID: "golden", PublicKey: []byte("golden-public-key"), Helper: helper})
	record := e.Bytes()

	checks := []struct {
		name      string
		got, want any
	}{
		{"movements sha256", sha256Hex(raw), goldenMovementsSHA},
		{"boundary coordinates", boundaries, goldenBoundaries},
		{"digest", hex.EncodeToString(helper.Sketch.Digest[:]), goldenDigest},
		{"key", hex.EncodeToString(key), goldenKey},
		{"challenge sha256", sha256Hex(challenge), goldenChallengeSHA},
		{"challenge length", len(challenge), goldenChallengeLen},
		{"record sha256", sha256Hex(record), goldenRecordSHA},
		{"record length", len(record), goldenRecordLen},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}

	// The pinned bytes decode back to a helper from which Rep reproduces
	// the pinned key at a probe t away from the template.
	msg, err := Unmarshal(challenge)
	if err != nil {
		t.Fatal(err)
	}
	y := x.Clone()
	for i := range y {
		y[i] = l.Add(y[i], []int64{-l.Threshold(), 0, l.Threshold()}[i%3])
	}
	got, err := fe.Rep(y, msg.(*Challenge).Helper)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Fatal("Rep on the decoded challenge did not reproduce the key")
	}
}
