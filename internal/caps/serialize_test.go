package caps

import (
	"testing"
	"testing/quick"

	"multikernel/internal/memory"
)

func TestPackWordsRoundTripProperty(t *testing.T) {
	f := func(typ uint8, level uint8, base uint64, bytes uint64, rights uint8) bool {
		c := Capability{
			Type:   Type(typ % 9),
			Level:  int(level % 5),
			Base:   memory.Addr(base),
			Bytes:  bytes,
			Rights: Rights(rights & 0x0f),
		}
		return UnpackWords(c.PackWords()) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
