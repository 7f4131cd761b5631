# A p_fn that waits for a free hart on the next core while its own core
# sleeps (2 cores). Hart 0 heads an outer team {hart 0, X = hart 1}.
# Hart 0's inner team fills core 1 and spins; X then asks for a hart on
# core 1 with p_fn and retries until the first inner member ends. Only
# the hart free on core 1 wakes core 0 for that retry: a fast path that
# does not wake the core before a freed hart's core runs X's p_fn late
# and ends on a later cycle than the reference loop.
main:
    p_set t0
    la ra, outer_join
    p_fc t6                   # X = hart 1 on core 0
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    la a0, m_body
    p_jalr ra, t0, a0         # hart 0 runs m_body; X starts below
    p_lwcv ra, 0
    p_lwcv t0, 4
    j x_body
outer_join:
    li ra, 0
    li t0, -1
    p_ret
m_body:
    addi sp, sp, -8
    sw ra, 0(sp)
    sw t0, 4(sp)
    p_set t0                  # inner team: join = hart 0
    la ra, m_inner_join
    li t1, 3                  # members to fork after the first
    p_fn t6                   # first inner member on core 1
fork_next:
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_swcv t1, t6, 8
    p_merge t0, t0, t6
    p_syncm
    la a0, inner_work
    p_jalr ra, t0, a0         # this hart works; the new one continues
    p_lwcv ra, 0
    p_lwcv t0, 4
    p_lwcv t1, 8
    beqz t1, inner_last
    addi t1, t1, -1
    p_fc t6
    j fork_next
inner_last:
    addi sp, sp, -8
    sw ra, 0(sp)
    sw t0, 4(sp)
    p_set t0
    jal inner_leaf
    lw ra, 0(sp)
    lw t0, 4(sp)
    addi sp, sp, 8
    p_ret                     # last inner member: join back to hart 0
inner_work:
    li a5, 1000
iw_spin:
    addi a5, a5, -1
    bnez a5, iw_spin
    p_ret
inner_leaf:
    p_ret
m_inner_join:
    lw ra, 0(sp)
    lw t0, 4(sp)
    addi sp, sp, 8
    p_ret                     # outer head: token to X
x_body:
    li a5, 100
x_spin:
    addi a5, a5, -1
    bnez a5, x_spin
    addi sp, sp, -8
    sw ra, 0(sp)
    sw t0, 4(sp)
    p_set t0                  # X heads {X, Y}
    la ra, x_inner_join
    p_fn t6                   # waits: core 1 is full
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    la a0, x_work
    p_jalr ra, t0, a0
    p_lwcv ra, 0              # Y, last member of X's team
    p_lwcv t0, 4
    p_ret
x_work:
    p_ret                     # X as inner head: token to Y, park
x_inner_join:
    lw ra, 0(sp)
    lw t0, 4(sp)
    addi sp, sp, 8
    p_ret                     # X, last outer member: join to hart 0
