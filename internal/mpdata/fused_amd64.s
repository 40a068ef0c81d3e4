// Copyright (c) 2026 The islands authors. MIT License; see LICENSE.

//go:build amd64 && !amd64.v3

// AVX2 plane bodies of the MPDATA group kernels of fused.go, and the CPU
// probe that enables them.
//
// Every body has the same shape. The Go wrapper hands it a table of stream
// pointers (one per field row the Go loop reads or writes, already displaced
// by the stencil offset and bounds-checked against its field for the whole
// region) and the region's geometry g: planes of rows of n cells, rowStride
// and planeStride bytes apart.
//
// Rows are whole: the table has three sections of the same streams — the row
// bodies, then the k = 0 end cell and the k = NK-1 end cell of every row,
// whose pointers carry the offsets of an environment pinned at that k — and
// ends says which end sections are present (bit 0, bit 1); an absent section
// is never read.
//
// The row walk. A row of four cells or more, its end cells counted, runs as
// whole 4-wide vectors only: the first starts at the row's first cell (the
// k = 0 end cell when that end is present), the next ones follow it, and the
// last ends exactly at the row's last cell (the k = NK-1 end cell when
// present), overlapping the one before it unless the row is a multiple of
// four long. The overlapped cells are computed twice, to the same bits: no
// body reads a field it writes. An end cell is lane 0 of the first vector or
// lane 3 of the last. A stream whose k offset does not cross that face
// resolves to the same offset under the pinned environment, so its end
// section pointer is its body pointer one cell down (up): the vector loads it
// plainly, that lane proven by the end section's slice expression and the
// others by the body's. A stream whose k offset crosses the face — each
// body's table below lists them, with the loaders that take them — loads its
// other three lanes through a mask, since the crossing lane's plain address
// can lie outside every proven span (before the field at its first row, past
// it at its last), and takes that lane from its end section by a broadcast
// and a blend. Only rows shorter than one vector (NK <= 3, or regions cut
// short) keep the walk of single lanes: a VMASKMOVPD tail of 1-3 body cells,
// then each present end cell on one lane at the row's offset. Either way no
// byte is touched outside [pointer, pointer + (planes-1)*planeStride +
// (rows-1)*rowStride + n*8) of some section's stream.
//
// The results are the scalar loop's, bit for bit, by construction: the same
// operations in the same association, VDIVPD (no reciprocal), no FMA, and
//
//	maxf(a, b)  =  VMAXPD b, a, dst    (a is the first source: on a tie, +-0 or
//	minf(a, b)  =  VMINPD b, a, dst     NaN both return the second, b, which is
//	                                    "if a > b { return a }; return b")
//	absf(x)     =  x XOR (signbit AND (x < 0))    (keeps absf(-0) = -0)
//
// In Go operand order the last register is the destination and the one
// before it Intel's first source: VSUBPD b, a, dst is dst = a - b.

#include "textflag.h"

DATA fusedConsts<>+0(SB)/8, $0.5
DATA fusedConsts<>+8(SB)/8, $0.25
DATA fusedConsts<>+16(SB)/8, $1.0
DATA fusedConsts<>+24(SB)/8, $1e-15 // Eps
DATA fusedConsts<>+32(SB)/8, $0x8000000000000000
GLOBL fusedConsts<>(SB), RODATA|NOPTR, $40

// One clear lane, four set, four clear. The 32 bytes at offset 0 mask lanes
// 1-3 (a first vector's non-end lanes), at 16 lanes 0-2 (a last vector's),
// and at 8+(4-rem)*8 the first rem lanes (a tail, an end cell).
DATA laneMasks<>+0(SB)/8, $0
DATA laneMasks<>+8(SB)/8, $0xffffffffffffffff
DATA laneMasks<>+16(SB)/8, $0xffffffffffffffff
DATA laneMasks<>+24(SB)/8, $0xffffffffffffffff
DATA laneMasks<>+32(SB)/8, $0xffffffffffffffff
DATA laneMasks<>+40(SB)/8, $0
DATA laneMasks<>+48(SB)/8, $0
DATA laneMasks<>+56(SB)/8, $0
DATA laneMasks<>+64(SB)/8, $0
GLOBL laneMasks<>(SB), RODATA|NOPTR, $72

// Registers common to all bodies:
//
//	DI   stream pointer table        R8   rowStride      R11  rows
//	SI   byte offset of the vector   R9   n              R12  planes left
//	CX   cells left in the row       R10  row offset     R13  planeStride
//	DX   rows left in the plane      AX   scratch        BX   plane offset
//	Y14  0.0                         Y15  tail or blend mask
//
// SI and CX count from the body's first cell: a row's k = 0 end cell sits at
// SI = R10-8, its k = NK-1 end cell at R10+n*8, and an end section's stream
// reaches its cell of the row at R10.

// Stream i of the table, at the current vector: whole, masked by Y15, and its
// first cell in every lane. One cell — a one-cell tail, an end cell — loads
// that way because a 32-byte window at the last cell of a row straddles a
// cache line, and the line it drags in may never be used.
#define LDU(i, y) MOVQ ((i)*8)(DI), AX; VMOVUPD (AX)(SI*1), y
#define STU(y, i) MOVQ ((i)*8)(DI), AX; VMOVUPD y, (AX)(SI*1)
#define LDM(i, y) MOVQ ((i)*8)(DI), AX; VMASKMOVPD (AX)(SI*1), Y15, y
#define STM(y, i) MOVQ ((i)*8)(DI), AX; VMASKMOVPD y, Y15, (AX)(SI*1)
#define LD1(i, y) MOVQ ((i)*8)(DI), AX; VBROADCASTSD (AX)(SI*1), y

// Stream i of a row's first vector whose lane 0 is the k = 0 end cell and
// whose k offset crosses that face: lanes 1-3 through the mask Y15 holds
// (laneMasks+0), lane 0 the same stream's cell in the k = 0 section, N
// streams up the table, broadcast into t and blended in.
#define BLEND_LO(i, N, t, y) \
	MOVQ ((i)*8)(DI), AX; \
	VMASKMOVPD (AX)(SI*1), Y15, y; \
	MOVQ (((i)+(N))*8)(DI), AX; \
	VBROADCASTSD (AX)(R10*1), t; \
	VBLENDPD $1, t, y, y

// The same for a last vector whose lane 3 is the k = NK-1 end cell: lanes 0-2
// through Y15 (laneMasks+16), lane 3 from the section 2*N streams up.
#define BLEND_HI(i, N, t, y) \
	MOVQ ((i)*8)(DI), AX; \
	VMASKMOVPD (AX)(SI*1), Y15, y; \
	MOVQ (((i)+2*(N))*8)(DI), AX; \
	VBROADCASTSD (AX)(R10*1), t; \
	VBLENDPD $8, t, y, y

// BLEND_LO and BLEND_HI for a vector that is both the row's first and its
// last, where streams crossing either face meet: each loads its own mask.
#define BLEND_LO2(i, N, t, y) VMOVDQU laneMasks<>+0(SB), Y15; BLEND_LO(i, N, t, y)
#define BLEND_HI2(i, N, t, y) VMOVDQU laneMasks<>+16(SB), Y15; BLEND_HI(i, N, t, y)

// Every macro that names an argument is defined here, above the first
// routine: vet's asmdecl attributes a #define to the TEXT before it.
#define ARGS \
	MOVQ p+0(FP), DI; \
	MOVQ g_n+8(FP), R9; \
	MOVQ g_rows+16(FP), R11; \
	MOVQ g_planes+24(FP), R12; \
	MOVQ g_rowStride+32(FP), R8; \
	MOVQ g_planeStride+40(FP), R13; \
	XORQ BX, BX; \
	VXORPD Y14, Y14, Y14

// Y15 = the mask of the first CX (1-3) lanes; leaves CX negated.
#define TAIL_MASK \
	LEAQ laneMasks<>+40(SB), AX; \
	NEGQ CX; \
	VMOVDQU (AX)(CX*8), Y15

// A division site names its registers twice, as Y and as X, and a body's DIV
// parameter picks the width. VDIVPD is the one instruction here whose cost is
// per lane — two cycles a double at any width — so one or two cells divide at
// 128 bits and pay for two lanes, not four; everything else in such a tail
// stays 256 bits wide under the mask (lanes 2 and 3 of a quotient come back
// zero, and are dead).
#define DIVY(yb, ya, yq, xb, xa, xq) VDIVPD yb, ya, yq
#define DIVX(yb, ya, yq, xb, xa, xq) VDIVPD xb, xa, xq

// The whole vectors of a row from SI on, CX >= 1 cells left: PLAIN on each,
// the last one moved back to end at the row's last cell. HOOK runs once SI
// holds that last vector and may take it elsewhere.
#define VECTORS(PLAIN, HOOK) \
vec: \
	CMPQ CX, $4; \
	JGT  body; \
	LEAQ -32(SI)(CX*8), SI; \
	HOOK; \
	XORQ CX, CX; \
body: \
	PLAIN; \
	ADDQ $32, SI; \
	SUBQ $4, CX; \
	JGT  vec; \
	JMP  rowdone

// The 1-3 cells from SI (CX of them, 0 for none) as a tail: BODY(LD1, STM,
// DIVX) on one cell, BODY(LDM, STM, ...) on two or three.
#define TAIL(BODY) \
	TESTQ CX, CX; \
	JZ   taildone; \
	TAIL_MASK; \
	CMPQ CX, $-2; \
	JEQ  tail2; \
	JLT  tail3; \
	BODY(LD1, STM, DIVX); \
	JMP  taildone; \
tail2: \
	BODY(LDM, STM, DIVX); \
	JMP  taildone; \
tail3: \
	BODY(LDM, STM, DIVY); \
taildone:

#define NOHOOK

// A row of a body with no end cells: whole vectors, or a tail when n < 4.
#define ROW(BODY) \
	MOVQ R10, SI; \
	MOVQ R9, CX; \
	CMPQ CX, $4; \
	JLT  short; \
	VECTORS(BODY(LDU, STU, DIVY), NOHOOK); \
short: \
	TAIL(BODY); \
rowdone:

// The end cells of a row too short for a vector: for each section ends
// names, BODY on one lane at the row's offset, through that section's
// streams, N*8 and 2*N*8 bytes up the table.
#define ENDS(BODY, N) \
	TESTQ $1, ends+48(FP); \
	JZ   lodone; \
	ADDQ $((N)*8), DI; \
	MOVQ R10, SI; \
	VMOVDQU laneMasks<>+32(SB), Y15; \
	BODY(LD1, STM, DIVX); \
	SUBQ $((N)*8), DI; \
lodone: \
	TESTQ $2, ends+48(FP); \
	JZ   hidone; \
	ADDQ $((N)*16), DI; \
	MOVQ R10, SI; \
	VMOVDQU laneMasks<>+32(SB), Y15; \
	BODY(LD1, STM, DIVX); \
	SUBQ $((N)*16), DI; \
hidone:

// The vector of an end a kernel never reads across (rowPasses sets no such
// bit): a trap, should it ever be reached.
#define NO_END UD2

// Jumps to last when the row has its k = NK-1 end cell.
#define TO_LAST \
	TESTQ $2, ends+48(FP); \
	JNZ  last

// A whole row of a body with N streams a section, its end cells included.
// PLAIN is the body on a vector no end cell is in; FIRST on the first vector
// holding the k = 0 end cell in lane 0 (Y15 = laneMasks+0 on entry), LAST on
// the last holding the k = NK-1 one in lane 3 (Y15 = laneMasks+16), BOTH on
// the single vector of a four-cell row holding both; BODY(LD, ST, DIV) is the
// body for a row shorter than a vector.
#define ROWS(PLAIN, FIRST, LAST, BOTH, BODY, N) \
	MOVQ R10, SI; \
	MOVQ R9, CX; \
	MOVQ ends+48(FP), AX; \
	TESTQ $1, AX; \
	JZ   nolo; \
	SUBQ $8, SI; \
	INCQ CX; \
nolo: \
	SHRQ $1, AX; \
	ADDQ AX, CX; \
	CMPQ CX, $4; \
	JLT  short; \
	TESTQ $1, ends+48(FP); \
	JZ   vec; \
	CMPQ CX, $4; \
	JNE  first; \
	TESTQ $2, ends+48(FP); \
	JNZ  both; \
first: \
	VMOVDQU laneMasks<>+0(SB), Y15; \
	FIRST; \
	SUBQ $4, CX; \
	JZ   rowdone; \
	ADDQ $32, SI; \
	VECTORS(PLAIN, TO_LAST); \
last: \
	VMOVDQU laneMasks<>+16(SB), Y15; \
	LAST; \
	JMP  rowdone; \
both: \
	BOTH; \
	JMP  rowdone; \
short: \
	MOVQ R10, SI; \
	MOVQ R9, CX; \
	TAIL(BODY); \
	ENDS(BODY, N); \
rowdone:

// The region: WALK (a row's ROW or ROWS, leaving DI as it found it) on every
// row of every plane.
#define REGION(WALK) \
plane: \
	MOVQ BX, R10; \
	MOVQ R11, DX; \
row: \
	WALK; \
	ADDQ R8, R10; \
	DECQ DX; \
	JNZ  row; \
	ADDQ R13, BX; \
	DECQ R12; \
	JNZ  plane; \
	VZEROUPPER; \
	RET

// donor(a, b, u) = maxf(u, 0)*a + minf(u, 0)*b with a in Y0, u in yu, b
// stream pd loaded by LD; stored to stream out. Clobbers Y5-Y7.
#define DONOR(LD, ST, yu, pd, out) \
	VMAXPD Y14, yu, Y5; \
	VMINPD Y14, yu, Y6; \
	VMULPD Y0, Y5, Y5; \
	LD(pd, Y7); \
	VMULPD Y7, Y6, Y6; \
	VADDPD Y6, Y5, Y5; \
	ST(Y5, out)

// func donorFluxesAVX2(p *[30]*float64, g rowGeom, ends int)
//
// fusedDonorFluxes, per cell x of a row:
//
//	r1[x] = donor(p0[x], p1[x], w1[x])
//	r2[x] = donor(p0[x], p2[x], w2[x])
//	r3[x] = donor(p0[x], p3[x], w3[x])
//
// Streams: 0 p0, 1-3 p1..p3 (psi at +i, +j, +k), 4-6 w1..w3, 7-9 r1..r3.
// Crossing: 3 at k = NK-1 (LHI); the kernel has no k = 0 end cells.
#define DONOR_FLUXES_X(LD, LHI, ST, DIV) \
	LD(0, Y0); \
	LD(4, Y1); \
	DONOR(LD, ST, Y1, 1, 7); \
	LD(5, Y1); \
	DONOR(LD, ST, Y1, 2, 8); \
	LD(6, Y1); \
	DONOR(LHI, ST, Y1, 3, 9)

#define DONOR_FLUXES(LD, ST, DIV) DONOR_FLUXES_X(LD, LD, ST, DIV)
#define DF_HI(i, y) BLEND_HI(i, 10, Y2, y)

TEXT ·donorFluxesAVX2(SB), NOSPLIT, $0-56
	ARGS
	REGION(ROWS(DONOR_FLUXES(LDU, STU, DIVY), NO_END, DONOR_FLUXES_X(LDU, DF_HI, STU, DIVY), NO_END, DONOR_FLUXES, 10))

// "if v > mx { mx = v }; if v < mn { mn = v }" for stream i loaded by LD, mx
// in Y0, mn in Y1.
#define EXTREMUM(LD, i) \
	LD(i, Y2); \
	VMAXPD Y0, Y2, Y0; \
	VMINPD Y1, Y2, Y1

// func extremaAVX2(p *[48]*float64, g rowGeom, ends int)
//
// fusedExtrema, per cell n: mx = mn = psi[n], then the 13 values
//
//	cur[n], psi[n+siN], cur[n+siN], psi[n+siP], cur[n+siP],
//	psi[n+sjN], cur[n+sjN], psi[n+sjP], cur[n+sjP],
//	psi[n+skN], cur[n+skN], psi[n+skP], cur[n+skP]
//
// folded in that order; omx[n] = mx, omn[n] = mn.
//
// Streams: 0 psi[n], 1-13 the values above in order, 14 omx, 15 omn.
// Crossing: 10 and 11 at k = 0 (LLO), 12 and 13 at k = NK-1 (LHI).
#define EXTREMA_X(LD, LLO, LHI, ST, DIV) \
	LD(0, Y0); \
	VMOVAPD Y0, Y1; \
	EXTREMUM(LD, 1); \
	EXTREMUM(LD, 2); \
	EXTREMUM(LD, 3); \
	EXTREMUM(LD, 4); \
	EXTREMUM(LD, 5); \
	EXTREMUM(LD, 6); \
	EXTREMUM(LD, 7); \
	EXTREMUM(LD, 8); \
	EXTREMUM(LD, 9); \
	EXTREMUM(LLO, 10); \
	EXTREMUM(LLO, 11); \
	EXTREMUM(LHI, 12); \
	EXTREMUM(LHI, 13); \
	ST(Y0, 14); \
	ST(Y1, 15)

#define EXTREMA(LD, ST, DIV) EXTREMA_X(LD, LD, LD, ST, DIV)
#define EX_LO(i, y) BLEND_LO(i, 16, Y3, y)
#define EX_HI(i, y) BLEND_HI(i, 16, Y3, y)
#define EX_LO2(i, y) BLEND_LO2(i, 16, Y3, y)
#define EX_HI2(i, y) BLEND_HI2(i, 16, Y3, y)

TEXT ·extremaAVX2(SB), NOSPLIT, $0-56
	ARGS
	REGION(ROWS(EXTREMA(LDU, STU, DIVY), EXTREMA_X(LDU, EX_LO, LDU, STU, DIVY), EXTREMA_X(LDU, LDU, EX_HI, STU, DIVY), EXTREMA_X(LDU, EX_LO2, EX_HI2, STU, DIVY), EXTREMA, 16))

// One cross gradient, B = 0.5*(P - M)/(P + M + Eps) with P = streams p0 + p1
// and M = streams m0 + m1, returned undivided: x = Ubar*(P - M), the numerator
// already weighted by the transverse face average Ubar = 0.25*(s0 + s1 + s2 +
// s3) (streams added left to right), and y = P + M + Eps, the denominator.
// The loaders follow the streams' offsets: LD for s0 (the cell's own), LDD
// for s2 (+d), LP, LDP, LN and LDN for p0, p1, m0 and m1 (+t, +d+t, -t and
// +d-t, t the transverse direction), LN and LDN for s1 and s3 (-t, +d-t).
// x and y are neither Y5 nor Y6. Clobbers Y5-Y7.
#define CROSS_GRADIENT(LD, LDD, LP, LDP, LN, LDN, p0, p1, m0, m1, s0, s1, s2, s3, x, y) \
	LP(p0, Y5); \
	LDP(p1, Y6); \
	VADDPD Y6, Y5, Y5; \
	LN(m0, Y6); \
	LDN(m1, Y7); \
	VADDPD Y7, Y6, Y6; \
	VSUBPD Y6, Y5, x; \
	VADDPD Y6, Y5, y; \
	VADDPD Y13, y, y; \
	LD(s0, Y5); \
	LN(s1, Y6); \
	VADDPD Y6, Y5, Y5; \
	LDD(s2, Y6); \
	VADDPD Y6, Y5, Y5; \
	LDN(s3, Y6); \
	VADDPD Y6, Y5, Y5; \
	VMULPD Y5, Y11, Y5; \
	VMULPD x, Y5, x

// func pseudoVelAVX2(p *[198]*float64, g rowGeom, ends int)
//
// fusedPseudoVel, per row and direction dir (a, b the transverse ones), per
// cell n — one division, over the common denominator of the three ratios and
// both 1/hbar:
//
//	uf := u[n]
//	hbar := 0.5 * (h[n] + h[n+sd])
//	p0, pd := ps[n], ps[n+sd]
//	xA, yA := pd-p0, pd+p0+Eps
//	paP := ps[n+saP] + ps[n+sd+saP]
//	paM := ps[n+saN] + ps[n+sd+saN]
//	xa, ya := paP-paM, paP+paM+Eps
//	pbP := ps[n+sbP] + ps[n+sd+sbP]
//	pbM := ps[n+sbN] + ps[n+sd+sbN]
//	xb, yb := pbP-pbM, pbP+pbM+Eps
//	uaBar := 0.25 * (ua[n] + ua[n+saN] + ua[n+sd] + ua[n+sd+saN])
//	ubBar := 0.25 * (ub[n] + ub[n+sbN] + ub[n+sd] + ub[n+sd+sbN])
//	au, yab := absf(uf), ya*yb
//	out[n] = (au*(hbar-au)*xA*yab - 0.5*uf*(uaBar*xa*yb+ubBar*xb*ya)*yA) / (hbar * yA * yab)
//
// Streams, 22 per direction, three directions in a row (66 a section): 0 u[n], 1 h[n],
// 2 h[n+sd], 3 ps[n], 4 ps[n+sd], 5 ps[n+saP], 6 ps[n+sd+saP], 7 ps[n+saN],
// 8 ps[n+sd+saN], 9 ps[n+sbP], 10 ps[n+sd+sbP], 11 ps[n+sbN],
// 12 ps[n+sd+sbN], 13 ua[n], 14 ua[n+saN], 15 ua[n+sd], 16 ua[n+sd+saN],
// 17 ub[n], 18 ub[n+sbN], 19 ub[n+sd], 20 ub[n+sd+sbN], 21 out[n].
//
// Loaders by offset: LDD for +d (2, 4, 15, 19), LAP +a (5), LDAP +d+a (6),
// LAN -a (7, 14), LDAN +d-a (8, 16), LBP +b (9), LDBP +d+b (10), LBN -b (11,
// 18), LDBN +d-b (12, 20), LD for the rest. Crossing, per direction:
//
//	i (b = k)   11, 12, 18, 20 at k = 0; 9, 10 at k = NK-1
//	j (a = k)   7, 8, 14, 16 at k = 0; 5, 6 at k = NK-1
//	k (d = +k)  none at k = 0; 2, 4, 6, 8, 10, 12, 15, 16, 19, 20 at k = NK-1
//
// Y9 signbit, Y11 0.25, Y12 0.5, Y13 Eps; Y10 is the blends' broadcast.
#define PSEUDO_VEL_X(LD, LDD, LAP, LDAP, LAN, LDAN, LBP, LDBP, LBN, LDBN, ST, DIV) \
	LD(1, Y0); \
	LDD(2, Y1); \
	VADDPD Y1, Y0, Y0; \
	VMULPD Y0, Y12, Y0; /* Y0 = hbar */ \
	LD(3, Y1); \
	LDD(4, Y2); \
	VSUBPD Y1, Y2, Y3; /* Y3 = xA */ \
	VADDPD Y1, Y2, Y2; \
	VADDPD Y13, Y2, Y2; /* Y2 = yA */ \
	CROSS_GRADIENT(LD, LDD, LAP, LDAP, LAN, LDAN, 5, 6, 7, 8, 13, 14, 15, 16, Y1, Y4); /* Y1 = uaBar*xa, Y4 = ya */ \
	CROSS_GRADIENT(LD, LDD, LBP, LDBP, LBN, LDBN, 9, 10, 11, 12, 17, 18, 19, 20, Y7, Y8); /* Y7 = ubBar*xb, Y8 = yb */ \
	VMULPD Y8, Y1, Y1; \
	VMULPD Y4, Y7, Y7; \
	VADDPD Y7, Y1, Y1; /* Y1 = uaBar*xa*yb+ubBar*xb*ya */ \
	VMULPD Y8, Y4, Y4; /* Y4 = yab */ \
	LD(0, Y5); /* Y5 = uf */ \
	VMULPD Y5, Y12, Y6; \
	VMULPD Y1, Y6, Y6; \
	VMULPD Y2, Y6, Y6; /* Y6 = 0.5*uf*(uaBar*xa*yb+ubBar*xb*ya)*yA */ \
	VCMPPD $1, Y14, Y5, Y7; \
	VANDPD Y9, Y7, Y7; \
	VXORPD Y7, Y5, Y5; /* Y5 = au */ \
	VSUBPD Y5, Y0, Y7; \
	VMULPD Y7, Y5, Y5; \
	VMULPD Y3, Y5, Y5; \
	VMULPD Y4, Y5, Y5; /* Y5 = au*(hbar-au)*xA*yab */ \
	VSUBPD Y6, Y5, Y5; \
	VMULPD Y2, Y0, Y0; \
	VMULPD Y4, Y0, Y0; /* Y0 = hbar*yA*yab */ \
	DIV(Y0, Y5, Y5, X0, X5, X5); \
	ST(Y5, 21)

#define PSEUDO_VEL(LD, ST, DIV) PSEUDO_VEL_X(LD, LD, LD, LD, LD, LD, LD, LD, LD, LD, ST, DIV)
#define PV_LO(i, y) BLEND_LO(i, 66, Y10, y)
#define PV_HI(i, y) BLEND_HI(i, 66, Y10, y)
#define PV_LO2(i, y) BLEND_LO2(i, 66, Y10, y)
#define PV_HI2(i, y) BLEND_HI2(i, 66, Y10, y)

// The first, last and both-ends vectors of a row pick their crossing streams
// by direction: R14 counts the directions down, 3 (i), 2 (j), 1 (k). The
// last three arguments name the labels of one use.
#define PV_BY_DIR(I, J, K, dirj, dirk, dirdone) \
	CMPQ R14, $2; \
	JLT  dirk; \
	JEQ  dirj; \
	I; \
	JMP  dirdone; \
dirj: \
	J; \
	JMP  dirdone; \
dirk: \
	K; \
dirdone:

#define PV_PLAIN PSEUDO_VEL(LDU, STU, DIVY)
#define PV_FIRST PV_BY_DIR(PSEUDO_VEL_X(LDU, LDU, LDU, LDU, LDU, LDU, LDU, LDU, PV_LO, PV_LO, STU, DIVY), PSEUDO_VEL_X(LDU, LDU, LDU, LDU, PV_LO, PV_LO, LDU, LDU, LDU, LDU, STU, DIVY), PV_PLAIN, firstj, firstk, firstdone)
#define PV_LAST PV_BY_DIR(PSEUDO_VEL_X(LDU, LDU, LDU, LDU, LDU, LDU, PV_HI, PV_HI, LDU, LDU, STU, DIVY), PSEUDO_VEL_X(LDU, LDU, PV_HI, PV_HI, LDU, LDU, LDU, LDU, LDU, LDU, STU, DIVY), PSEUDO_VEL_X(LDU, PV_HI, LDU, PV_HI, LDU, PV_HI, LDU, PV_HI, LDU, PV_HI, STU, DIVY), lastj, lastk, lastdone)
#define PV_BOTH PV_BY_DIR(PSEUDO_VEL_X(LDU, LDU, LDU, LDU, LDU, LDU, PV_HI2, PV_HI2, PV_LO2, PV_LO2, STU, DIVY), PSEUDO_VEL_X(LDU, LDU, PV_HI2, PV_HI2, PV_LO2, PV_LO2, LDU, LDU, LDU, LDU, STU, DIVY), PSEUDO_VEL_X(LDU, PV_HI2, LDU, PV_HI2, LDU, PV_HI2, LDU, PV_HI2, LDU, PV_HI2, STU, DIVY), bothj, bothk, bothdone)

// The row in the three directions, one stream block each; R14 counts them.
// Each direction walks its row and end cells, whose blocks sit a section (66
// streams) up the table from the direction's own.
#define PSEUDO_VEL_ROWS \
	MOVQ $3, R14; \
dir: \
	ROWS(PV_PLAIN, PV_FIRST, PV_LAST, PV_BOTH, PSEUDO_VEL, 66); \
	ADDQ $(22*8), DI; \
	DECQ R14; \
	JNZ  dir; \
	SUBQ $(66*8), DI

TEXT ·pseudoVelAVX2(SB), NOSPLIT, $0-56
	ARGS
	VBROADCASTSD fusedConsts<>+0(SB), Y12
	VBROADCASTSD fusedConsts<>+8(SB), Y11
	VBROADCASTSD fusedConsts<>+24(SB), Y13
	VBROADCASTSD fusedConsts<>+32(SB), Y9
	REGION(PSEUDO_VEL_ROWS)

// One face direction of fusedLimiterFluxes: v at the cell (stream vc, loaded
// by LD) and at its low neighbour (vn, by LN), ps at the low (pn, by LN) and
// high (pp, by LP) neighbours. Leaves A = maxf(v[n+sN], 0)*ps[n+sN] in Y3,
// B = minf(v[n], 0)*ps[n+sP] in Y4 and (maxf(v[n], 0) - minf(v[n+sN], 0))*p0
// in Y5. Clobbers Y1, Y2, Y6.
#define LIMITER_FACE(LD, LN, LP, vc, vn, pn, pp) \
	LD(vc, Y1); \
	LN(vn, Y2); \
	VMAXPD Y14, Y2, Y3; \
	LN(pn, Y6); \
	VMULPD Y6, Y3, Y3; \
	VMINPD Y14, Y1, Y4; \
	LP(pp, Y6); \
	VMULPD Y6, Y4, Y4; \
	VMAXPD Y14, Y1, Y5; \
	VMINPD Y14, Y2, Y6; \
	VSUBPD Y6, Y5, Y5; \
	VMULPD Y0, Y5, Y5

// func limiterFluxesAVX2(p *[45]*float64, g rowGeom, ends int)
//
// fusedLimiterFluxes, per cell n:
//
//	oin[n] = maxf(v1[n+siN], 0)*ps[n+siN] - minf(v1[n], 0)*ps[n+siP] +
//		maxf(v2[n+sjN], 0)*ps[n+sjN] - minf(v2[n], 0)*ps[n+sjP] +
//		maxf(v3[n+skN], 0)*ps[n+skN] - minf(v3[n], 0)*ps[n+skP]
//	p0 := ps[n]
//	oout[n] = (maxf(v1[n], 0)-minf(v1[n+siN], 0))*p0 +
//		(maxf(v2[n], 0)-minf(v2[n+sjN], 0))*p0 +
//		(maxf(v3[n], 0)-minf(v3[n+skN], 0))*p0
//
// Streams: 0 v1[n], 1 v1[n+siN], 2 v2[n], 3 v2[n+sjN], 4 v3[n], 5 v3[n+skN],
// 6 ps[n], 7 ps[n+siN], 8 ps[n+siP], 9 ps[n+sjN], 10 ps[n+sjP],
// 11 ps[n+skN], 12 ps[n+skP], 13 oin, 14 oout.
// Crossing: 5 and 11 at k = 0 (LLO), 12 at k = NK-1 (LHI).
#define LIMITER_FLUXES_X(LD, LLO, LHI, ST, DIV) \
	LD(6, Y0); \
	LIMITER_FACE(LD, LD, LD, 0, 1, 7, 8); \
	VSUBPD Y4, Y3, Y7; /* Y7 = oin so far */ \
	VMOVAPD Y5, Y8; /* Y8 = oout so far */ \
	LIMITER_FACE(LD, LD, LD, 2, 3, 9, 10); \
	VADDPD Y3, Y7, Y7; \
	VSUBPD Y4, Y7, Y7; \
	VADDPD Y5, Y8, Y8; \
	LIMITER_FACE(LD, LLO, LHI, 4, 5, 11, 12); \
	VADDPD Y3, Y7, Y7; \
	VSUBPD Y4, Y7, Y7; \
	VADDPD Y5, Y8, Y8; \
	ST(Y7, 13); \
	ST(Y8, 14)

#define LIMITER_FLUXES(LD, ST, DIV) LIMITER_FLUXES_X(LD, LD, LD, ST, DIV)
#define LR_LO(i, y) BLEND_LO(i, 15, Y9, y)
#define LR_HI(i, y) BLEND_HI(i, 15, Y9, y)
#define LR_LO2(i, y) BLEND_LO2(i, 15, Y9, y)
#define LR_HI2(i, y) BLEND_HI2(i, 15, Y9, y)

TEXT ·limiterFluxesAVX2(SB), NOSPLIT, $0-56
	ARGS
	REGION(ROWS(LIMITER_FLUXES(LDU, STU, DIVY), LIMITER_FLUXES_X(LDU, LR_LO, LDU, STU, DIVY), LIMITER_FLUXES_X(LDU, LDU, LR_HI, STU, DIVY), LIMITER_FLUXES_X(LDU, LR_LO2, LR_HI2, STU, DIVY), LIMITER_FLUXES, 15))

// One face direction of fusedLimitedFluxes, streams b+0 pd, b+1 bud, b+2 bdd,
// b+3 vf, b+4 out; vf loaded by LD, the other three (at the neighbour) by LX;
// p0 in Y0, bu0 in Y8, bd0 in Y9, 1.0 in Y10.
#define LIMITED_FACE(LD, LX, ST, b) \
	LD(b+3, Y1); \
	LX(b+1, Y2); \
	VMINPD Y2, Y9, Y2; \
	VMINPD Y2, Y10, Y2; \
	VMAXPD Y14, Y1, Y3; \
	VMULPD Y3, Y2, Y2; /* Y2 = cPos*maxf(v, 0) */ \
	LX(b+2, Y3); \
	VMINPD Y3, Y8, Y3; \
	VMINPD Y3, Y10, Y3; \
	VMINPD Y14, Y1, Y4; \
	VMULPD Y4, Y3, Y3; /* Y3 = cNeg*minf(v, 0) */ \
	VADDPD Y3, Y2, Y1; /* Y1 = vm */ \
	DONOR(LX, ST, Y1, b+0, b+4)

// func limitedFluxesAVX2(p *[54]*float64, g rowGeom, ends int)
//
// fusedLimitedFluxes, per cell x of a row and face direction:
//
//	v := vf[x]
//	vm := minf(1, minf(bd0[x], bud[x]))*maxf(v, 0) +
//		minf(1, minf(bu0[x], bdd[x]))*minf(v, 0)
//	out[x] = donor(p0[x], pd[x], vm)
//
// Streams: 0 p0, 1 bu0, 2 bd0, then five per direction (see LIMITED_FACE)
// from 3, 8 and 13. Crossing: 13, 14 and 15 at k = NK-1 (LHI); the kernel
// has no k = 0 end cells.
#define LIMITED_FLUXES_X(LD, LHI, ST, DIV) \
	LD(0, Y0); \
	LD(1, Y8); \
	LD(2, Y9); \
	LIMITED_FACE(LD, LD, ST, 3); \
	LIMITED_FACE(LD, LD, ST, 8); \
	LIMITED_FACE(LD, LHI, ST, 13)

#define LIMITED_FLUXES(LD, ST, DIV) LIMITED_FLUXES_X(LD, LD, ST, DIV)
#define LD_HI(i, y) BLEND_HI(i, 18, Y11, y)

TEXT ·limitedFluxesAVX2(SB), NOSPLIT, $0-56
	ARGS
	VBROADCASTSD fusedConsts<>+16(SB), Y10
	REGION(ROWS(LIMITED_FLUXES(LDU, STU, DIVY), NO_END, LIMITED_FLUXES_X(LDU, LD_HI, STU, DIVY), NO_END, LIMITED_FLUXES, 18))

// func fluxDivergenceAVX2(p *[27]*float64, g rowGeom, ends int)
//
// fluxDivergence, per cell x of a row:
//
//	div := a0[x] - ai[x] + c0[x] - cj[x] + e0[x] - ek[x]
//	row[x] = b0[x] - div/hh[x]
//
// Streams: 0 b0, 1 hh, 2 a0, 3 ai, 4 c0, 5 cj, 6 e0, 7 ek (the three fluxes
// at the cell and at its low neighbour), 8 row. Crossing: 7 at k = 0 (LLO);
// the kernel has no k = NK-1 end cells.
#define FLUX_DIVERGENCE_X(LD, LLO, ST, DIV) \
	LD(2, Y0); \
	LD(3, Y1); \
	VSUBPD Y1, Y0, Y0; \
	LD(4, Y1); \
	VADDPD Y1, Y0, Y0; \
	LD(5, Y1); \
	VSUBPD Y1, Y0, Y0; \
	LD(6, Y1); \
	VADDPD Y1, Y0, Y0; \
	LLO(7, Y1); \
	VSUBPD Y1, Y0, Y0; /* Y0 = div */ \
	LD(1, Y1); \
	DIV(Y1, Y0, Y0, X1, X0, X0); \
	LD(0, Y1); \
	VSUBPD Y0, Y1, Y1; \
	ST(Y1, 8)

#define FLUX_DIVERGENCE(LD, ST, DIV) FLUX_DIVERGENCE_X(LD, LD, ST, DIV)
#define FD_LO(i, y) BLEND_LO(i, 9, Y2, y)

TEXT ·fluxDivergenceAVX2(SB), NOSPLIT, $0-56
	ARGS
	REGION(ROWS(FLUX_DIVERGENCE(LDU, STU, DIVY), FLUX_DIVERGENCE_X(LDU, FD_LO, STU, DIVY), NO_END, NO_END, FLUX_DIVERGENCE, 9))

// One limiter coefficient of fusedBetas: (e - p) from stream e, negated when
// FLIP is NEGATE, times h over (f + Eps) from stream f, stored to stream out;
// p in Y0, h in Y1, Eps in Y13, signbit in Y9. The negation is a sign-bit
// XOR, as the compiler's: -(+0) is -0, and a NaN comes out with its sign
// flipped — the one place a second NaN pattern is made, so the product names
// the difference as its first source, as the compiler's MULSD h, diff does:
// where both are NaN the difference's survives.
#define KEEP(y)
#define NEGATE(y) VXORPD Y9, y, y
#define BETA(LD, ST, DIV, FLIP, e, f, out) \
	LD(e, Y2); \
	VSUBPD Y0, Y2, Y2; \
	FLIP(Y2); \
	VMULPD Y1, Y2, Y2; \
	LD(f, Y3); \
	VADDPD Y13, Y3, Y3; \
	DIV(Y3, Y2, Y2, X3, X2, X2); \
	ST(Y2, out)

// func betasAVX2(p *[8]*float64, g rowGeom)
//
// fusedBetas, per cell x of a row:
//
//	up[x] = (emx[x] - p[x]) * hh[x] / (fi[x] + Eps)
//	dn[x] = -(emn[x] - p[x]) * hh[x] / (fo[x] + Eps)
//
// Streams: 0 emx, 1 emn, 2 p, 3 hh, 4 fi, 5 fo, 6 up, 7 dn.
#define BETAS(LD, ST, DIV) \
	LD(2, Y0); \
	LD(3, Y1); \
	BETA(LD, ST, DIV, KEEP, 0, 4, 6); \
	BETA(LD, ST, DIV, NEGATE, 1, 5, 7)

TEXT ·betasAVX2(SB), NOSPLIT, $0-48
	ARGS
	VBROADCASTSD fusedConsts<>+24(SB), Y13
	VBROADCASTSD fusedConsts<>+32(SB), Y9
	REGION(ROW(BETAS))

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// XCR0, the extended states the operating system saves; only valid once
// CPUID reports OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
