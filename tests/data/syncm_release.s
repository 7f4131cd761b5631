# A p_syncm decoded with nothing in flight is released in that same
# cycle, for every hart of the core, even one that loses the fetch slot
# (1 core). Hart 0 forks hart 1 onto the continuation and runs `child`.
# Its p_syncm is decoded once the lw's value has landed and before the
# sw that waits on it has issued, so nothing is in flight: the cycle's
# fetch stage must clear the block although hart 1 wins the fetch. The sw
# issues next cycle; a block left standing would then hold hart 0's
# fetch until the store's ack and exit a cycle later.
main:
    la s0, gdata
    p_set t0
    la ra, rp
    p_fc t6
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    la a0, child
    p_jalr ra, t0, a0         # hart 0 runs child; hart 1 starts below
    p_lwcv ra, 0
    p_lwcv t0, 4
    la s0, gdata2
    nop
    addi a3, a4, 1
    p_syncm
    p_ret
rp:
    li ra, 0
    li t0, -1
    p_ret
child:
    li t2, 7
    li t3, 3
    add t3, t3, t3
    lw t1, 20(s0)
    mul t3, t3, t2
    sw t1, 16(s0)             # waits for the lw
    p_syncm                   # decoded after the lw lands, before the sw issues
    p_ret
.data
gdata: .word 0, 0, 0, 0, 0, 0, 0, 0
gdata2: .word 0, 0, 0, 0, 0, 0, 0, 0
