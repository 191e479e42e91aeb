package runner

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"sync"
)

// A disk entry is one framed record:
//
//	"GDPc" | version | payload kind | payload length | payload | CRC-32C
//
// The magic is four bytes, the version and the kind one byte each, and the
// length and the CRC little-endian uint32s; the CRC covers every byte before
// it. A file that is cut short, carries a flipped bit, or was written in
// another format fails the frame check and reads as a corrupt entry.
const (
	entryExt     = ".entry"
	frameMagic   = "GDPc"
	frameVersion = 1
	frameHeader  = len(frameMagic) + 2 + 4
	frameTrailer = 4

	// kindJSON payloads are encoding/json documents; kindBinary payloads
	// are written and read by the codec the value's type registered.
	kindJSON   = 'J'
	kindBinary = 'B'
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errBadFrame = errors.New("runner: cache entry frame is damaged")

// codecs maps a value type to its *binaryCodec. It is filled by
// RegisterCodec from package init functions and only read afterwards.
var codecs sync.Map

type binaryCodec[T any] struct {
	appendTo func(b []byte, v T) ([]byte, error)
	read     func(payload []byte) (T, error)
}

// payloadCodec is what the type-erased write path needs of a binaryCodec.
type payloadCodec interface {
	appendPayload(b []byte, v any) ([]byte, error)
}

func (c *binaryCodec[T]) appendPayload(b []byte, v any) ([]byte, error) {
	return c.appendTo(b, v.(T))
}

// RegisterCodec gives values of type T a binary payload in cache entries:
// appendTo appends v's encoding to b (an error keeps v out of the disk layer),
// and read decodes one payload (an error reads as a corrupt entry). read
// must accept everything appendTo writes and must not panic on arbitrary
// bytes. Types without a codec are stored as JSON. The package that owns T
// calls RegisterCodec from an init function, once per type.
func RegisterCodec[T any](appendTo func(b []byte, v T) ([]byte, error), read func(payload []byte) (T, error)) {
	t := reflect.TypeFor[T]()
	if _, dup := codecs.LoadOrStore(t, &binaryCodec[T]{appendTo: appendTo, read: read}); dup {
		panic(fmt.Sprintf("runner: codec for %v registered twice", t))
	}
}

// encodeEntry frames v: a binary payload when v's type registered a codec,
// JSON otherwise.
func encodeEntry(v any) ([]byte, error) {
	var b []byte
	var err error
	if c, ok := codecs.Load(reflect.TypeOf(v)); ok {
		// Room for a sweep cell's rows, the one registered type.
		b, err = c.(payloadCodec).appendPayload(frameStart(kindBinary, 256), v)
	} else {
		var payload []byte
		if payload, err = json.Marshal(v); err == nil {
			b = append(frameStart(kindJSON, len(payload)), payload...)
		}
	}
	if err != nil {
		return nil, err
	}
	n := len(b) - frameHeader
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("runner: cache entry payload of %d bytes does not fit a frame", n)
	}
	binary.LittleEndian.PutUint32(b[frameHeader-4:], uint32(n))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

// frameStart returns a frame header of the given kind, with room for a
// payload of about payloadCap bytes and the trailer. The length is filled in
// by encodeEntry.
func frameStart(kind byte, payloadCap int) []byte {
	b := make([]byte, frameHeader, frameHeader+payloadCap+frameTrailer)
	copy(b, frameMagic)
	b[len(frameMagic)] = frameVersion
	b[len(frameMagic)+1] = kind
	return b
}

// decodeEntry checks raw's frame and decodes its payload as a T. A JSON
// payload decodes into any T; a binary one needs T's registered codec.
func decodeEntry[T any](raw []byte) (v T, err error) {
	if len(raw) < frameHeader+frameTrailer || string(raw[:len(frameMagic)]) != frameMagic ||
		raw[len(frameMagic)] != frameVersion {
		return v, errBadFrame
	}
	body := raw[:len(raw)-frameTrailer]
	if n := binary.LittleEndian.Uint32(raw[frameHeader-4:]); uint64(n) != uint64(len(body)-frameHeader) ||
		crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(raw[len(body):]) {
		return v, errBadFrame
	}
	payload := body[frameHeader:]
	switch raw[len(frameMagic)+1] {
	case kindJSON:
		err = json.Unmarshal(payload, &v)
		return v, err
	case kindBinary:
		c, ok := codecs.Load(reflect.TypeFor[T]())
		if !ok {
			return v, fmt.Errorf("runner: binary cache entry, but %T has no codec", v)
		}
		return c.(*binaryCodec[T]).read(payload)
	}
	return v, errBadFrame
}
