#include "textflag.h"

// func prefetch(p *byte)
//
// Two lines: a frame's Ethernet/IP/transport header is 54–78 bytes, so one
// that starts late in a line straddles into the next.
TEXT ·prefetch(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 63(AX)
	RET
