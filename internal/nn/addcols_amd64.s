#include "textflag.h"

// Column k of a pass with n columns sits in slot 8-n+k: its pointer in
// R8 R9 R10 R11 R12 R13 BX SI, its a[k] broadcast in X2 … X9. Every pass
// enters the one chain of slots at slot 8-n (ENTER, on n in DX) and runs
// it to the end, so the products reach an output in ascending k.
#define ENTER(s0, s1, s2, s3, s4, s5, s6, s7) \
	CMPQ DX, $8; JEQ s0; CMPQ DX, $7; JEQ s1; CMPQ DX, $6; JEQ s2; CMPQ DX, $5; JEQ s3; \
	CMPQ DX, $4; JEQ s4; CMPQ DX, $3; JEQ s5; CMPQ DX, $2; JEQ s6; CMPQ DX, $1; JEQ s7

// LOAD fills a slot from AX = &w[n-8] and DI = &a[n-8].
#define LOAD(woff, aoff, col, ak) MOVQ woff(AX), col; MOVSS aoff(DI), ak; SHUFPS $0, ak, ak

// QUAD adds a slot's products into outputs AX … AX+3 (X0); ONE into
// output AX alone. The product is rounded before the add: never an FMA.
#define QUAD(col, ak) MOVUPS (col)(AX*4), X1; MULPS ak, X1; ADDPS X1, X0
#define ONE(col, ak) MOVSS (col)(AX*4), X1; MULSS ak, X1; ADDSS X1, X0

// func addCols(y []float32, w *[colsPerPass][]float32, a *[colsPerPass]float32, n int)
TEXT ·addCols(SB), NOSPLIT, $0-48
	MOVQ n+40(FP), DX
	MOVQ w+24(FP), AX
	MOVQ a+32(FP), DI
	LEAQ -8(DX), BX
	LEAQ (BX)(BX*2), CX
	SHLQ $3, CX
	ADDQ CX, AX
	LEAQ (DI)(BX*4), DI
	ENTER(load0, load1, load2, load3, load4, load5, load6, load7)
	RET

load0:	LOAD(0, 0, R8, X2)
load1:	LOAD(24, 4, R9, X3)
load2:	LOAD(48, 8, R10, X4)
load3:	LOAD(72, 12, R11, X5)
load4:	LOAD(96, 16, R12, X6)
load5:	LOAD(120, 20, R13, X7)
load6:	LOAD(144, 24, BX, X8)
load7:	LOAD(168, 28, SI, X9)

	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX

quad:
	CMPQ   AX, CX
	JAE    tail
	MOVUPS (DI)(AX*4), X0
	ENTER(quad0, quad1, quad2, quad3, quad4, quad5, quad6, quad7)

quad0:	QUAD(R8, X2)
quad1:	QUAD(R9, X3)
quad2:	QUAD(R10, X4)
quad3:	QUAD(R11, X5)
quad4:	QUAD(R12, X6)
quad5:	QUAD(R13, X7)
quad6:	QUAD(BX, X8)
quad7:	QUAD(SI, X9)
	MOVUPS X0, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    quad

tail:
	MOVQ y_len+8(FP), CX

one:
	CMPQ  AX, CX
	JAE   done
	MOVSS (DI)(AX*4), X0
	ENTER(one0, one1, one2, one3, one4, one5, one6, one7)

one0:	ONE(R8, X2)
one1:	ONE(R9, X3)
one2:	ONE(R10, X4)
one3:	ONE(R11, X5)
one4:	ONE(R12, X6)
one5:	ONE(R13, X7)
one6:	ONE(BX, X8)
one7:	ONE(SI, X9)
	MOVSS X0, (DI)(AX*4)
	INCQ  AX
	JMP   one

done:
	RET
