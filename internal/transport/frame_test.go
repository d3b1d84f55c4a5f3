package transport

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/ioa"
)

// goldenFrames covers every frame type with representative payloads.
func goldenFrames() []Frame {
	return []Frame{
		{Type: FrameHello, Proto: "abp", N: 2, W: 1, FIFO: true},
		{Type: FrameHello, Proto: "gbn", N: 8, W: 3},
		{Type: FrameData, Action: ioa.SendPkt(ioa.TR, ioa.Packet{ID: 42, Header: "data/1", Payload: "m7"})},
		{Type: FrameData, Action: ioa.SendPkt(ioa.RT, ioa.Packet{ID: 9, Header: "ack/0"})},
		{Type: FrameStatus, Action: ioa.Wake(ioa.RT)},
		{Type: FrameStatus, Action: ioa.Crash(ioa.TR)},
		{Type: FrameEvent, Action: ioa.SendMsg(ioa.TR, "m1")},
		{Type: FrameEvent, Action: ioa.ReceiveMsg(ioa.TR, "m1")},
		{Type: FrameEvent, Action: ioa.ReceivePkt(ioa.TR, ioa.Packet{ID: 42, Header: "data/1", Payload: "m7"})},
		{Type: FrameBye},
	}
}

// TestFrameRoundTrip: every encodable frame decodes to an equal frame,
// consuming exactly its encoding, and re-encodes bit-identically.
func TestFrameRoundTrip(t *testing.T) {
	for _, f := range goldenFrames() {
		enc, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode %s: %v", f.Type, err)
		}
		got, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("decode %s: %v", f.Type, err)
		}
		if n != len(enc) {
			t.Fatalf("decode %s consumed %d of %d bytes", f.Type, n, len(enc))
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("round trip changed frame:\n got %#v\nwant %#v", got, f)
		}
		re, err := EncodeFrame(got)
		if err != nil || !bytes.Equal(re, enc) {
			t.Fatalf("re-encode of %s differs (err=%v)", f.Type, err)
		}
	}
}

// TestFrameRejectsEverySingleByteCorruption: for each golden frame,
// every possible value change of every byte must be rejected with
// ErrFrameFormat. Flips inside [version..crc] are caught by the CRC
// (CRC32 detects all single-byte errors); flips in the length prefix
// shift the CRC window or run past the buffer.
func TestFrameRejectsEverySingleByteCorruption(t *testing.T) {
	for _, f := range goldenFrames() {
		enc, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		mut := make([]byte, len(enc))
		for pos := 0; pos < len(enc); pos++ {
			for delta := 1; delta < 256; delta++ {
				copy(mut, enc)
				mut[pos] ^= byte(delta)
				g, n, err := DecodeFrame(mut)
				if err == nil && n == len(mut) {
					t.Fatalf("%s frame: corruption at byte %d (xor %#02x) accepted as %#v", f.Type, pos, delta, g)
				}
				if err != nil && !errors.Is(err, ErrFrameFormat) {
					t.Fatalf("%s frame: corruption at byte %d: error %v does not wrap ErrFrameFormat", f.Type, pos, err)
				}
			}
		}
	}
}

// TestFrameRejectsTruncation: every strict prefix is rejected.
func TestFrameRejectsTruncation(t *testing.T) {
	for _, f := range goldenFrames() {
		enc, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := DecodeFrame(enc[:cut]); !errors.Is(err, ErrFrameFormat) {
				t.Fatalf("%s frame truncated at %d: want ErrFrameFormat, got %v", f.Type, cut, err)
			}
		}
	}
}

// TestFrameRejectsOversizeAndSkew: oversize length prefixes, version
// skew and unknown types are all typed rejections.
func TestFrameRejectsOversizeAndSkew(t *testing.T) {
	// Length prefix beyond MaxFrame.
	huge := []byte{0xff, 0xff, 0xff, 0xff, frameVersion, byte(FrameBye)}
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrFrameFormat) {
		t.Fatalf("oversize length: want ErrFrameFormat, got %v", err)
	}
	// Length prefix below the fixed overhead.
	tiny := []byte{0x00, 0x00, 0x00, 0x01, frameVersion}
	if _, _, err := DecodeFrame(tiny); !errors.Is(err, ErrFrameFormat) {
		t.Fatalf("undersize length: want ErrFrameFormat, got %v", err)
	}
	// Version skew and unknown type, with the CRC recomputed so only
	// the targeted check can reject them.
	for _, tc := range []struct {
		name    string
		version byte
		ftype   byte
	}{
		{"version skew", frameVersion + 1, byte(FrameBye)},
		{"unknown type", frameVersion, 99},
	} {
		enc, err := EncodeFrame(Frame{Type: FrameBye})
		if err != nil {
			t.Fatal(err)
		}
		enc[4] = tc.version
		enc[5] = tc.ftype
		patchCRC(enc)
		if _, _, err := DecodeFrame(enc); !errors.Is(err, ErrFrameFormat) {
			t.Fatalf("%s: want ErrFrameFormat, got %v", tc.name, err)
		}
	}
}

// TestFrameReaderWriterStream: frames written back to back decode in
// order through the streaming reader, and a clean close yields io.EOF.
func TestFrameReaderWriterStream(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for _, f := range goldenFrames() {
		if err := fw.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for _, want := range goldenFrames() {
		got, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream decode mismatch:\n got %#v\nwant %#v", got, want)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at clean boundary, got %v", err)
	}
}

// shortReaders wrap a stream in the short-read shapes a socket can
// produce: one byte per read, half of each request, and data returned
// together with the final io.EOF.
var shortReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data-err", iotest.DataErrReader},
}

// goldenStream returns the golden frames encoded back to back, with the
// end offset of each frame in the stream.
func goldenStream(t *testing.T) (stream []byte, ends []int) {
	t.Helper()
	for _, f := range goldenFrames() {
		var err error
		if stream, err = AppendFrame(stream, f); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(stream))
	}
	return stream, ends
}

// TestFrameReaderShortReads: whatever the read sizes, the streaming
// reader decodes the same frames as DecodeFrame over the whole buffer,
// then reports io.EOF at the clean end of the stream.
func TestFrameReaderShortReads(t *testing.T) {
	stream, _ := goldenStream(t)
	var want []Frame
	for rest := stream; len(rest) > 0; {
		f, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
		rest = rest[n:]
	}
	for _, sr := range shortReaders {
		t.Run(sr.name, func(t *testing.T) {
			fr := NewFrameReader(sr.wrap(bytes.NewReader(stream)))
			for i, w := range want {
				got, err := fr.Next()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("frame %d:\n got %#v\nwant %#v", i, got, w)
				}
			}
			if _, err := fr.Next(); err != io.EOF {
				t.Fatalf("want io.EOF at the end of the stream, got %v", err)
			}
		})
	}
}

// TestFrameReaderCutStream: a stream cut at every byte offset, read
// through each short-read shape, yields the frames wholly before the
// cut and then io.EOF if the cut falls on a frame boundary, or an
// ErrFrameFormat if it falls inside a frame.
func TestFrameReaderCutStream(t *testing.T) {
	stream, ends := goldenStream(t)
	for _, sr := range shortReaders {
		t.Run(sr.name, func(t *testing.T) {
			for cut := 0; cut <= len(stream); cut++ {
				whole, boundary := 0, cut == 0
				for _, end := range ends {
					if end <= cut {
						whole++
						boundary = boundary || end == cut
					}
				}
				fr := NewFrameReader(sr.wrap(bytes.NewReader(stream[:cut])))
				for i := 0; i < whole; i++ {
					if _, err := fr.Next(); err != nil {
						t.Fatalf("cut %d: frame %d: %v", cut, i, err)
					}
				}
				_, err := fr.Next()
				switch {
				case boundary && err != io.EOF:
					t.Fatalf("cut %d at a frame boundary: want io.EOF, got %v", cut, err)
				case !boundary && !errors.Is(err, ErrFrameFormat):
					t.Fatalf("cut %d inside a frame: want ErrFrameFormat, got %v", cut, err)
				}
			}
		})
	}
}

// FuzzFrameDecode mirrors FuzzCheckpointDecode: the decoder must never
// panic, and anything it accepts must re-encode bit-identically and
// decode again to the same frame.
func FuzzFrameDecode(f *testing.F) {
	for _, fr := range goldenFrames() {
		enc, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		mut := append([]byte(nil), enc...)
		if len(mut) > 8 {
			mut[8] ^= 0x40
		}
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x06, frameVersion, byte(FrameBye), 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrFrameFormat) {
				t.Fatalf("decode error %v does not wrap ErrFrameFormat", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		re, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("accepted frame %#v does not re-encode: %v", fr, err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode differs from accepted input\n in: %x\nout: %x", data[:n], re)
		}
		fr2, n2, err := DecodeFrame(re)
		if err != nil || n2 != n || !reflect.DeepEqual(fr2, fr) {
			t.Fatalf("re-decode diverged: %#v vs %#v (n=%d/%d, err=%v)", fr2, fr, n2, n, err)
		}
	})
}

// patchCRC recomputes the trailing CRC over [version..body] so tests
// can craft frames that fail exactly one check.
func patchCRC(enc []byte) {
	inner := enc[4:]
	covered := inner[:len(inner)-4]
	c := crc32.ChecksumIEEE(covered)
	inner[len(inner)-4] = byte(c >> 24)
	inner[len(inner)-3] = byte(c >> 16)
	inner[len(inner)-2] = byte(c >> 8)
	inner[len(inner)-1] = byte(c)
}
