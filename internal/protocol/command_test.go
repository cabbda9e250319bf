package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// canon maps empty slices and maps to nil, so commands that differ only in
// how "absent" is spelled compare equal.
func canon(c Command) Command {
	if len(c.Key) == 0 {
		c.Key = nil
	}
	if len(c.Mode) == 0 {
		c.Mode = nil
	}
	if len(c.Keys) == 0 {
		c.Keys = nil
	}
	if len(c.Keywords) == 0 {
		c.Keywords = nil
	}
	if len(c.Attrs) == 0 {
		c.Attrs = nil
	}
	return c
}

// viaLine and viaFrame push a command through one framing: encode, decode.
func viaLine(t testing.TB, c Command) Command {
	t.Helper()
	var got Command
	if err := DecodeLine(&got, c.Line()); err != nil {
		t.Fatalf("line %q: %v", c.Line(), err)
	}
	return got
}

func viaFrame(t testing.TB, c Command) (Command, byte) {
	t.Helper()
	op, payload := c.AppendFrame(nil)
	var got Command
	if err := DecodeFrame(&got, op, payload); err != nil {
		t.Fatalf("frame 0x%02x of %q: %v", op, c.Line(), err)
	}
	return got, op
}

// TestCommandFramingsAgree is the request half of the codec differential:
// every command, encoded as a text line and as a v2 frame, decodes to the
// same Command under both decoders — the one the client built. The table
// pins which requests get a compact opcode and which ride the tunnel; the
// seeded sweep covers the option space.
func TestCommandFramingsAgree(t *testing.T) {
	attrs := map[string]string{"collection": "Corel", "note": "two words"}
	cases := []struct {
		c  Command
		op byte
	}{
		{Command{Cmd: CmdPing}, OpPing},
		{Command{Cmd: CmdCount}, OpCount},
		{Command{Cmd: CmdStats}, OpStats},
		{Command{Cmd: CmdTelemetry}, OpText},
		{Command{Cmd: CmdDelete, Key: []byte("a b/c.jpg")}, OpDelete},
		{Command{Cmd: CmdInfo, Key: []byte("img/dog.jpg")}, OpText},
		{Command{Cmd: CmdQuery, Key: []byte("img/dog.jpg")}, OpQuery},
		{Command{Cmd: CmdQuery, Key: []byte(`q"uo\te`), K: maxU16, Mode: []byte("sketch"), Budget: time.Millisecond, Trace: TraceOn}, OpQuery},
		{Command{Cmd: CmdQuery, Key: []byte("k"), K: maxU16 + 1}, OpText},
		{Command{Cmd: CmdQuery, Key: []byte("k"), Trace: "00000000deadbeef"}, OpText},
		{Command{Cmd: CmdQuery, Key: []byte("k"), SegWeights: "0,1.5"}, OpText},
		{Command{Cmd: CmdQuery, Key: []byte("k"), Keywords: []string{"dog", "beach"}, Attrs: attrs}, OpText},
		{Command{Cmd: CmdQueryFile, Path: "/tmp/my photos/x.png", K: 3, Mode: []byte("bruteforce")}, OpText},
		{Command{Cmd: CmdBatchQuery, Keys: [][]byte{[]byte("a"), []byte("b c"), []byte("d")}, K: 5, Trace: TraceOn}, OpBatchQuery},
		{Command{Cmd: CmdBatchQuery, Keys: [][]byte{[]byte("a")}, Attrs: attrs}, OpText},
		{Command{Cmd: CmdAddFile, Path: "new.dat"}, OpIngest},
		{Command{Cmd: CmdAddFile, Path: "new.dat", Attrs: attrs}, OpIngest},
		{Command{Cmd: CmdSearch, Keywords: []string{"dog"}, Attrs: attrs}, OpText},
		{Command{Cmd: CmdTrace}, OpTrace},
		{Command{Cmd: CmdTrace, N: 7, Slow: true}, OpTrace},
		{Command{Cmd: CmdTrace, ID: "00000000deadbeef"}, OpTrace},
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		c := Command{Cmd: CmdQuery, Key: []byte(fmt.Sprintf("obj/%d", rng.Intn(1000)))}
		if rng.Intn(2) == 0 {
			c = Command{Cmd: CmdBatchQuery}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				c.Keys = append(c.Keys, []byte(fmt.Sprintf("obj %d", rng.Intn(1000))))
			}
		}
		c.K = rng.Intn(3) * rng.Intn(30000)
		c.Mode = []byte([]string{"", "filtering", "BruteForce", "sketch"}[rng.Intn(4)])
		c.Budget = time.Duration(rng.Intn(2)) * time.Duration(rng.Intn(1e9))
		c.Trace = []string{"", TraceOn}[rng.Intn(2)]
		op := map[string]byte{CmdQuery: OpQuery, CmdBatchQuery: OpBatchQuery}[c.Cmd]
		if rng.Intn(4) == 0 {
			c.Keywords, op = []string{"dog"}, OpText
		}
		cases = append(cases, struct {
			c  Command
			op byte
		}{c, op})
	}
	for _, tc := range cases {
		want := canon(tc.c)
		if got := canon(viaLine(t, tc.c)); !reflect.DeepEqual(got, want) {
			t.Errorf("text framing of %q decoded to\n%+v, want\n%+v", tc.c.Line(), got, want)
		}
		got, op := viaFrame(t, tc.c)
		if op != tc.op {
			t.Errorf("%q framed under opcode 0x%02x, want 0x%02x", tc.c.Line(), op, tc.op)
		}
		if got = canon(got); !reflect.DeepEqual(got, want) {
			t.Errorf("v2 framing (0x%02x) of %q decoded to\n%+v, want\n%+v", op, tc.c.Line(), got, want)
		}
	}
}

const maxU16 = 0xffff

// TestDecodeRejects pins the request-level decode errors of both framings.
func TestDecodeRejects(t *testing.T) {
	var c Command
	for _, line := range []string{
		"", `QUERY key="unterminated`, "QUERY novalue",
		"QUERY key=a k=0", "QUERY key=a k=-3", "QUERY key=a k=ten", "QUERY key=a k=99999999999999999999",
		"QUERY key=a budget=soon", "QUERY key=a budget=-1s",
		"TRACE n=0", "BATCHQUERY n=x", "BATCHQUERY n=3 key0=a key1=b", "BATCHQUERY n=4611686018427387904 key0=a",
	} {
		if err := DecodeLine(&c, line); err == nil {
			t.Errorf("line %q decoded: %+v", line, c)
		}
	}
	full := AppendQueryV2(nil, "some/key", 5, "sketch", QueryFlagTrace, 1000)
	for n := 0; n < len(full); n++ {
		if err := DecodeFrame(&c, OpQuery, full[:n]); err == nil {
			t.Errorf("OpQuery payload truncated to %d of %d bytes decoded: %+v", n, len(full), c)
		}
	}
	if err := DecodeFrame(&c, 0x7f, nil); err == nil {
		t.Error("unknown opcode decoded")
	}
	// A batch frame claiming 65535 keys it does not carry must fail without
	// sizing anything by the claim.
	if err := DecodeFrame(&c, OpBatchQuery, []byte{0xff, 0xff, 1, 0, 'a'}); err == nil || len(c.Keys) > 2 {
		t.Errorf("lying batch frame: err %v, %d keys", err, len(c.Keys))
	}
}

// checkBounded fails when a decoded command holds more keys or attributes
// than in bytes of input could have spelled.
func checkBounded(t *testing.T, c *Command, in int) {
	t.Helper()
	if len(c.Keys) > in || len(c.Attrs) > in || len(c.Keywords) > in+1 {
		t.Fatalf("%d input bytes decoded to %d keys, %d attrs, %d keywords", in, len(c.Keys), len(c.Attrs), len(c.Keywords))
	}
}

// FuzzDecodeLine: arbitrary lines decode or error, never panic, never hold
// more than the line could spell, and whatever decodes re-encodes to a line
// that decodes to the same command.
func FuzzDecodeLine(f *testing.F) {
	for _, line := range []string{
		"", "  ", "CMD =v", "CMD novalue x", `CMD a="unterminated`,
		`query key=img/dog.jpg k=5 mode=filtering`,
		`ADDFILE path="my photos/dog 1.jpg" attr:note="a \"good\" dog"`,
		`QUERY key=a budget=3ms trace=on segweights=0,1 keywords=dog,beach attr:c=Corel`,
		`BATCHQUERY n=2 key0=a key1="b c" k=3`, `BATCHQUERY n=9 key0=a`,
		`TRACE n=5 slow=1`, `TRACE id=00000000deadbeef`, `QUERY key="" k=4611686018427387904`,
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		var c Command
		if DecodeLine(&c, line) != nil {
			return
		}
		checkBounded(t, &c, len(line))
		if again := viaLine(t, c); !reflect.DeepEqual(canon(again), canon(c)) {
			t.Fatalf("line %q decoded to\n%+v, its re-encoding %q to\n%+v", line, c, c.Line(), again)
		}
	})
}

// FuzzDecodeFrame is FuzzDecodeLine for v2 request frames. (An OpText frame
// is a text line and re-encodes as one, so FuzzDecodeLine's property covers
// its contents; here it is only decoded.)
func FuzzDecodeFrame(f *testing.F) {
	f.Add(OpPing, []byte(nil))
	f.Add(OpQuery, AppendQueryV2(nil, "img/dog.jpg", 5, "filtering", QueryFlagTrace, 3e6))
	f.Add(OpQuery, AppendQueryV2(nil, "k", maxU16, "", 0, 1<<63))
	f.Add(OpText, []byte(`QUERY key=a keywords=dog`))
	for _, c := range []Command{
		{Cmd: CmdBatchQuery, Keys: [][]byte{[]byte("a"), []byte("b c")}, K: 3},
		{Cmd: CmdAddFile, Path: "x.png", Attrs: map[string]string{"note": "new"}},
		{Cmd: CmdTrace, N: 5, Slow: true, ID: "00000000deadbeef"},
		{Cmd: CmdDelete, Key: []byte("gone")},
	} {
		op, payload := c.AppendFrame(nil)
		f.Add(op, payload)
		f.Add(op, payload[:len(payload)/2])
	}
	f.Add(OpBatchQuery, []byte{0xff, 0xff, 1, 0, 'a'})
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		var c Command
		if DecodeFrame(&c, op, payload) != nil {
			return
		}
		checkBounded(t, &c, len(payload))
		if op == OpText {
			return
		}
		again, reop := viaFrame(t, c)
		if reop != op || !reflect.DeepEqual(canon(again), canon(c)) {
			t.Fatalf("frame 0x%02x %q decoded to\n%+v, its re-encoding (0x%02x) to\n%+v", op, payload, c, reop, again)
		}
	})
}
