// The engine's vCPU switch (src/sim/engine.cc), for x86-64 System V on ELF.
//
// A switch saves what the ABI makes a callee preserve -- rbp, rbx, r12-r15, the MXCSR and
// the x87 control word -- on the running stack, and nothing else: no system call, no
// signal mask, no x87/SSE status. Every fiber's saved stack pointer addresses the same
// 64-byte frame, lowest address first:
//
//   +0 MXCSR (4 bytes), x87 control word (2), padding (2)
//   +8 r15, r14, r13, r12, rbx, rbp
//  +56 return address
//
// Engine::MakeVcpuContexts writes that frame onto a fresh vCPU stack with sb_fiber_entry
// as the return address, the Engine* in rbx and Engine::FiberMain in r12.
//
// This file is its own object rather than inline asm in a C++ file because a compiler
// run with -fcf-protection marks each object it emits as CET shadow-stack compatible, and
// a routine that moves rsp without moving the shadow stack would break that promise. The
// file emits no .note.gnu.property, so no binary that links it claims SHSTK.

        .text

// void sb_fiber_switch(void** save_sp, void* load_sp)
        .globl  sb_fiber_switch
        .hidden sb_fiber_switch
        .type   sb_fiber_switch, @function
        .p2align 4
sb_fiber_switch:
        .cfi_startproc
        pushq   %rbp
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %rbp, 0
        pushq   %rbx
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %rbx, 0
        pushq   %r12
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r12, 0
        pushq   %r13
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r13, 0
        pushq   %r14
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r14, 0
        pushq   %r15
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r15, 0
        subq    $8, %rsp
        .cfi_adjust_cfa_offset 8
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        // The loaded frame has the same layout, so the CFI above describes it too.
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $8, %rsp
        .cfi_adjust_cfa_offset -8
        popq    %r15
        .cfi_adjust_cfa_offset -8
        popq    %r14
        .cfi_adjust_cfa_offset -8
        popq    %r13
        .cfi_adjust_cfa_offset -8
        popq    %r12
        .cfi_adjust_cfa_offset -8
        popq    %rbx
        .cfi_adjust_cfa_offset -8
        popq    %rbp
        .cfi_adjust_cfa_offset -8
        ret
        .cfi_endproc
        .size   sb_fiber_switch, .-sb_fiber_switch

// The first return into a fresh vCPU lands here, with rsp 16-byte aligned. rip is
// undefined in the CFI so that DWARF unwinders stop at the fiber's base; frame-pointer
// unwinders stop at the zero rbp the entry frame holds. FiberMain never returns.
        .globl  sb_fiber_entry
        .hidden sb_fiber_entry
        .type   sb_fiber_entry, @function
        .p2align 4
sb_fiber_entry:
        .cfi_startproc
        .cfi_undefined rip
        movq    %rbx, %rdi
        callq   *%r12
        ud2
        .cfi_endproc
        .size   sb_fiber_entry, .-sb_fiber_entry

        .section .note.GNU-stack,"",@progbits
