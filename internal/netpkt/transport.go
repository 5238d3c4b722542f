package netpkt

import (
	"encoding/binary"
	"fmt"
)

// UDPHeaderLen is the UDP header length.
const UDPHeaderLen = 8

// UDPHeader is a UDP header.
type UDPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16 // header + payload
	Checksum uint16
}

// Marshal writes the header into b (>= UDPHeaderLen), leaving the checksum
// field as given (zero when offloaded or unused).
func (h *UDPHeader) Marshal(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], h.Checksum)
}

// ParseUDP reads a UDP header from b.
func ParseUDP(b []byte) (UDPHeader, error) {
	if len(b) < UDPHeaderLen {
		return UDPHeader{}, fmt.Errorf("%w: udp needs %d bytes, have %d", ErrTruncated, UDPHeaderLen, len(b))
	}
	return UDPHeader{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Length:   binary.BigEndian.Uint16(b[4:6]),
		Checksum: binary.BigEndian.Uint16(b[6:8]),
	}, nil
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
)

// TCPHeaderLen is the option-less TCP header length.
const TCPHeaderLen = 20

// TCP option kinds understood by this package.
const (
	tcpOptEnd      = 0
	tcpOptNOP      = 1
	tcpOptMSS      = 2
	tcpOptSACKPerm = 4
	tcpOptSACK     = 5
)

// tcpMaxOptLen is the option space of the largest TCP header (60 bytes).
const tcpMaxOptLen = 40

// MaxSACKBlocks is the most SACK blocks a header carries: four blocks plus
// the option's kind, length and two NOP pads fill 36 of the 40 option
// bytes.
const MaxSACKBlocks = 4

// SACKBlock is one selectively acknowledged sequence range [Left, Right)
// (RFC 2018).
type SACKBlock struct {
	Left, Right uint32
}

// TCPHeader is a TCP header with the options the stack uses: MSS and
// SACK-permitted on SYNs, SACK blocks on ACKs. Unknown options are skipped
// on parse.
type TCPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
	// MSS is the maximum-segment-size option; zero means absent.
	MSS uint16
	// SACKPermitted is the SACK-permitted option (SYN segments).
	SACKPermitted bool
	// NSACK is the number of valid entries in SACK.
	NSACK uint8
	SACK  [MaxSACKBlocks]SACKBlock
	// DataOff is the parsed header length in bytes.
	DataOff int
}

// sackFit is the number of SACK blocks Marshal writes: NSACK, capped by the
// option space the other options leave.
func (h *TCPHeader) sackFit() int {
	if h.NSACK == 0 {
		return 0
	}
	room := tcpMaxOptLen - 4 // NOP, NOP, kind, length
	if h.MSS != 0 {
		room -= 4
	}
	if h.SACKPermitted {
		room -= 4
	}
	return min(int(h.NSACK), MaxSACKBlocks, room/8)
}

// SACKOptLen is the number of option bytes the SACK blocks of h take when
// marshalled (zero without blocks).
func (h *TCPHeader) SACKOptLen() int {
	if n := h.sackFit(); n > 0 {
		return 4 + 8*n
	}
	return 0
}

// MarshalLen returns the marshalled header length for this header.
func (h *TCPHeader) MarshalLen() int {
	n := TCPHeaderLen + h.SACKOptLen()
	if h.MSS != 0 {
		n += 4
	}
	if h.SACKPermitted {
		n += 4
	}
	return n
}

// Marshal writes the header into b (>= MarshalLen()), leaving Checksum as
// given (the pseudo-sum when offloaded). Options are laid out MSS,
// SACK-permitted, SACK, each padded with NOPs to a 4-byte boundary.
func (h *TCPHeader) Marshal(b []byte) {
	n := h.MarshalLen()
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = uint8(n/4) << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	binary.BigEndian.PutUint16(b[16:18], h.Checksum)
	b[18], b[19] = 0, 0 // urgent pointer unused
	o := b[TCPHeaderLen:n]
	if h.MSS != 0 {
		o[0], o[1] = tcpOptMSS, 4
		binary.BigEndian.PutUint16(o[2:4], h.MSS)
		o = o[4:]
	}
	if h.SACKPermitted {
		o[0], o[1], o[2], o[3] = tcpOptNOP, tcpOptNOP, tcpOptSACKPerm, 2
		o = o[4:]
	}
	if k := h.sackFit(); k > 0 {
		o[0], o[1], o[2], o[3] = tcpOptNOP, tcpOptNOP, tcpOptSACK, uint8(2+8*k)
		o = o[4:]
		for i := 0; i < k; i++ {
			binary.BigEndian.PutUint32(o[0:4], h.SACK[i].Left)
			binary.BigEndian.PutUint32(o[4:8], h.SACK[i].Right)
			o = o[8:]
		}
	}
}

// ParseTCP reads a TCP header and the options it understands from b. A SACK
// option whose length is not a whole number of blocks is ignored.
func ParseTCP(b []byte) (TCPHeader, error) {
	if len(b) < TCPHeaderLen {
		return TCPHeader{}, fmt.Errorf("%w: tcp needs %d bytes, have %d", ErrTruncated, TCPHeaderLen, len(b))
	}
	off := int(b[12]>>4) * 4
	if off < TCPHeaderLen || off > len(b) {
		return TCPHeader{}, fmt.Errorf("%w: tcp data offset %d", ErrBadLength, off)
	}
	h := TCPHeader{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Seq:      binary.BigEndian.Uint32(b[4:8]),
		Ack:      binary.BigEndian.Uint32(b[8:12]),
		Flags:    b[13] & 0x1f,
		Window:   binary.BigEndian.Uint16(b[14:16]),
		Checksum: binary.BigEndian.Uint16(b[16:18]),
		DataOff:  off,
	}
	opts := b[TCPHeaderLen:off]
	for len(opts) > 0 {
		switch opts[0] {
		case tcpOptEnd:
			opts = nil
		case tcpOptNOP:
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return TCPHeader{}, fmt.Errorf("%w: malformed tcp option", ErrBadLength)
			}
			olen := int(opts[1])
			switch {
			case opts[0] == tcpOptMSS && olen == 4:
				h.MSS = binary.BigEndian.Uint16(opts[2:4])
			case opts[0] == tcpOptSACKPerm && olen == 2:
				h.SACKPermitted = true
			case opts[0] == tcpOptSACK && olen > 2 && (olen-2)%8 == 0:
				blocks := opts[2:olen]
				h.NSACK = 0
				for len(blocks) >= 8 && int(h.NSACK) < MaxSACKBlocks {
					h.SACK[h.NSACK] = SACKBlock{
						Left:  binary.BigEndian.Uint32(blocks[0:4]),
						Right: binary.BigEndian.Uint32(blocks[4:8]),
					}
					h.NSACK++
					blocks = blocks[8:]
				}
			}
			opts = opts[olen:]
		}
	}
	return h, nil
}

// SeqLT reports whether sequence number a is before b, in modular
// 32-bit sequence space (RFC 793 comparison).
func SeqLT(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLEQ reports a <= b in sequence space.
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// SeqBetween reports low <= x < high in sequence space.
func SeqBetween(x, low, high uint32) bool {
	return SeqLEQ(low, x) && SeqLT(x, high)
}
