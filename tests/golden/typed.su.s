	.data
var_a: .word 0
var_b: .word 0
var_s: .word 0
	.text
	.globl main
main:
	li $t0, 61680
	sw $t0, var_a
	lw $t0, var_a
	nor $t0, $t0, $t0
	li $t1, 4
	srlv $t0, $t0, $t1
	sw $t0, var_b
	lw $t0, var_a
	li $t1, 3
	sllv $t0, $t0, $t1
	lui $t1, 15
	ori $t1, $t1, 16960
	subu $t0, $t0, $t1
	sw $t0, var_s
loop_0:
	li $t0, 0
	lw $t1, var_s
	slt $at, $t1, $t0
	beq $at, $zero, endloop_1
	lw $t0, var_b
	lw $t1, var_a
	sltu $at, $t1, $t0
	beq $at, $zero, endloop_1
	lw $t0, var_a
	lw $t1, var_b
	and $t0, $t0, $t1
	lw $t1, var_a
	or $t0, $t0, $t1
	li $t1, 255
	xor $t0, $t0, $t1
	li $t1, 3
	addu $t8, $t0, $zero
	addu $t9, $t1, $zero
	addu $v0, $zero, $zero
mul_loop_2:
	beq $t9, $zero, mul_done_2
	sll $at, $t9, 31
	beq $at, $zero, mul_skip_2
	addu $v0, $v0, $t8
mul_skip_2:
	sll $t8, $t8, 1
	srl $t9, $t9, 1
	j mul_loop_2
mul_done_2:
	addu $t0, $v0, $zero
	lw $t1, var_s
	addu $t0, $t1, $t0
	sw $t0, var_s
	lw $t0, var_s
	li $t1, 1
	srlv $t0, $t0, $t1
	sw $t0, var_b
	j loop_0
endloop_1:
	break
