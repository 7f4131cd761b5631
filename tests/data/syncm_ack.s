# A p_syncm block that must hold through a store (1 core). The second
# store waits on the mul and issues in the cycle the first store's
# acknowledgement lands: the ack drops OutstandingMem to 0 before the
# stages run, and the store's issue raises it again before fetch tests the
# block. A core step that does not re-test fetch after an issue releases
# the block a cycle early and exits a cycle sooner.
main:
    li t2, 7
    li t3, 3
    la s0, gdata
    sw t2, 0(s0)
    mul t1, t2, t3
    sw t1, 4(s0)              # waits for the mul; issues as the first store's ack lands
    p_syncm
    addi a1, a1, 1
    addi a1, a1, 2
    li ra, 0
    li t0, -1
    p_ret
.data
gdata: .word 0, 0, 0, 0
