	.data
var_a: .word 0
var_b: .word 0
var_s: .word 0
	.text
	.globl main
main:
	li $t0, 61680
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	sw $t0, var_a
	lw $t0, var_a
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lui $t0, 65535
	ori $t0, $t0, 65535
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 4
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	xor $t0, $t0, $t1
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	li $t0, 4
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 4
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	srlv $t0, $t0, $t1
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	sw $t0, var_b
	lw $t0, var_a
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	li $t0, 3
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 4
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	sllv $t0, $t0, $t1
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lui $t0, 15
	ori $t0, $t0, 16960
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 4
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	subu $t0, $t0, $t1
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	sw $t0, var_s
loop_0:
	li $t0, 0
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t0, var_s
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 4
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	slt $at, $t1, $t0
	beq $at, $zero, endloop_1
	lw $t0, var_b
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t0, var_a
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 4
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	sltu $at, $t1, $t0
	beq $at, $zero, endloop_1
	lw $t0, var_s
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t0, var_a
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t0, var_b
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 4
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	and $t0, $t0, $t1
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t0, var_a
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 4
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	or $t0, $t0, $t1
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	li $t0, 255
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 4
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	xor $t0, $t0, $t1
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	li $t0, 3
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 4
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
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
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 4
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	addu $t0, $t0, $t1
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	sw $t0, var_s
	lw $t0, var_s
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	li $t0, 1
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 4
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	srlv $t0, $t0, $t1
	addiu $sp, $sp, -4
	sw $t0, 0($sp)
	lw $t0, 0($sp)
	addiu $sp, $sp, 4
	sw $t0, var_b
	j loop_0
endloop_1:
	break
