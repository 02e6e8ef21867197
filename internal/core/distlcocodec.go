package core

// Wire codec for DistLCO state, registered with the parcel value codec
// registry so Runtime.Migrate can push a live distributed LCO to another
// node exactly like any data object: counters, accumulator and subscribed
// waiters all travel, so the encoding is the size of the LCO's state, not
// of its history.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/wire"
)

// DistLCOCodecName is the wire name of the DistLCO value codec. Every
// node of a machine registers it (at package init), so migrated LCOs
// decode anywhere.
const DistLCOCodecName = "px.distlco"

const distLCOCodecVersion = 2

func init() {
	parcel.RegisterValueCodec(DistLCOCodecName, parcel.ValueCodec{
		Encode: encodeDistLCO,
		Decode: decodeDistLCO,
	})
}

// appendValueRecord writes u8 present | u32 len | EncodeAny record.
func appendValueRecord(buf []byte, v any, present bool) ([]byte, error) {
	if !present {
		return append(buf, 0), nil
	}
	raw, err := parcel.EncodeAny(v)
	if err != nil {
		return nil, err
	}
	buf = append(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(raw)))
	return append(buf, raw...), nil
}

// readValueRecord reads what appendValueRecord wrote. A record that overruns
// the input flags the cursor and reads as absent.
func readValueRecord(c *wire.Cursor) (v any, present bool, err error) {
	if c.U8() == 0 {
		return nil, false, nil
	}
	raw := c.Bytes32()
	if c.Bad() {
		return nil, false, nil
	}
	v, err = parcel.DecodeAny(raw)
	return v, err == nil, err
}

func appendString16(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func encodeDistLCO(v any) ([]byte, bool, error) {
	l, ok := v.(*DistLCO)
	if !ok {
		return nil, false, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := make([]byte, 0, 64+16*len(l.waiters))
	buf = append(buf, distLCOCodecVersion, byte(l.kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.need))
	buf = appendString16(buf, l.red.String())
	resolved := byte(0)
	if l.resolved {
		resolved = 1
	}
	buf = append(buf, resolved)
	buf = appendString16(buf, l.failMsg)
	var err error
	// The accumulator/value is encoded when meaningful: reductions carry
	// a live accumulator from creation (an unset one as nil's false
	// record); futures and dataflows only hold a value once resolved;
	// gates never do.
	val, hasVal := l.val, l.resolved && l.failMsg == "" && l.val != nil
	if l.kind == lcoReduce {
		val, hasVal = l.acc.box(), true
	}
	if buf, err = appendValueRecord(buf, val, hasVal); err != nil {
		return nil, true, fmt.Errorf("accumulator: %w", err)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.slots)))
	for i := range l.slots {
		if buf, err = appendValueRecord(buf, l.slots[i], l.filled[i]); err != nil {
			return nil, true, fmt.Errorf("slot %d: %w", i, err)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.waiters)))
	for _, w := range l.waiters {
		buf = w.Target.Encode(buf)
		buf = append(buf, byte(w.Op))
		buf = binary.LittleEndian.AppendUint32(buf, w.Slot)
	}
	return buf, true, nil
}

func decodeDistLCO(buf []byte) (any, error) {
	fail := func(err error) (any, error) {
		return nil, fmt.Errorf("core: distlco decode: %w", err)
	}
	c := wire.NewCursor(buf)
	if v := c.U8(); !c.Bad() && v != distLCOCodecVersion {
		return fail(fmt.Errorf("version %d, want %d", v, distLCOCodecVersion))
	}
	l := &DistLCO{kind: lcoKind(c.U8())}
	l.need = int(c.U32())
	opName := c.Str16()
	l.resolved = c.U8() == 1
	l.failMsg = c.Str16()
	var ok bool
	l.red, ok = parseRedOp(opName)
	folds := l.kind == lcoReduce || l.kind == lcoDataflow
	if !c.Bad() && (!ok || folds != (l.red != redNone)) {
		return fail(fmt.Errorf("reducer %q on %s LCO", opName, l.kindName()))
	}
	var err error
	if l.val, _, err = readValueRecord(&c); err != nil {
		return fail(fmt.Errorf("accumulator: %w", err))
	}
	if l.kind == lcoReduce && !c.Bad() {
		// nil travels as false: an accumulator still unset.
		if l.acc, ok = numOf(l.val); !ok && l.val != false {
			return fail(fmt.Errorf("accumulator %T is not a number", l.val))
		}
		if !l.resolved {
			l.val = nil
		}
	}
	// Counts are checked against what is left before anything is sized by
	// them: each slot costs at least its presence byte.
	nslots := int(c.U32())
	if nslots > c.Len() {
		return fail(fmt.Errorf("slot count %d exceeds payload", nslots))
	}
	if nslots > 0 {
		l.slots = make([]any, nslots)
		l.filled = make([]bool, nslots)
		for i := range l.slots {
			if l.slots[i], l.filled[i], err = readValueRecord(&c); err != nil {
				return fail(fmt.Errorf("slot %d: %w", i, err))
			}
		}
	}
	nwait := int(c.U32())
	if nwait > c.Len()/(agas.GIDSize+5) {
		return fail(fmt.Errorf("waiter list truncated"))
	}
	for i := 0; i < nwait; i++ {
		l.waiters = append(l.waiters, Waiter{Target: c.GID(), Op: TrigOp(c.U8()), Slot: c.U32()})
	}
	if err := c.End(); err != nil {
		return fail(err)
	}
	return l, nil
}
