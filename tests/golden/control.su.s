	.data
var_x: .word 0
var_y: .word 0
	.text
	.globl main
main:
	li $t0, 3
	sw $t0, var_x
loop_0:
	lw $t0, var_x
	li $t1, 0
	subu $at, $t0, $t1
	beq $at, $zero, endloop_1
	j skip_2
	li $t0, 2
	lw $t1, var_y
	slt $at, $t1, $t0
	beq $at, $zero, endloop_1
skip_2:
	lw $t0, var_x
	li $t1, 1
	slt $at, $t1, $t0
	beq $at, $zero, skip_5
skip_5:
	lw $t0, var_y
	lw $t1, var_x
	addu $t8, $t0, $zero
	addu $t9, $t1, $zero
	addu $v0, $zero, $zero
mul_loop_6:
	beq $t9, $zero, mul_done_6
	sll $at, $t9, 31
	beq $at, $zero, mul_skip_6
	addu $v0, $v0, $t8
mul_skip_6:
	sll $t8, $t8, 1
	srl $t9, $t9, 1
	j mul_loop_6
mul_done_6:
	addu $t0, $v0, $zero
	li $t1, 1
	addu $t0, $t0, $t1
	sw $t0, var_y
	j endif_4
else_3:
endif_4:
	lw $t0, var_x
	li $t1, 1
	subu $t0, $t0, $t1
	sw $t0, var_x
	j loop_0
endloop_1:
	break
