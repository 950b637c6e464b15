"""Unit tests for PD / MR / CQ resource semantics."""

import pytest

from repro.verbs import (
    AccessFlags,
    CompletionQueue,
    Context,
    CQOverflowError,
    Opcode,
    RemoteAccessError,
    ResourceError,
    WCStatus,
    WorkCompletion,
)


def make_wc(**overrides):
    defaults = dict(
        wr_id=1,
        status=WCStatus.SUCCESS,
        opcode=Opcode.RDMA_READ,
        byte_len=64,
        qp_num=7,
        post_time=0.0,
        complete_time=100.0,
        queue_ahead=0,
    )
    defaults.update(overrides)
    return WorkCompletion(**defaults)


class TestProtectionDomain:
    def test_alloc_and_destroy(self):
        ctx = Context()
        pd = ctx.alloc_pd()
        assert pd in ctx.pds
        pd.destroy()
        assert pd.destroyed
        assert pd not in ctx.pds

    def test_destroy_with_live_mr_fails(self):
        ctx = Context()
        pd = ctx.alloc_pd()
        mr = ctx.reg_mr(pd, 4096)
        with pytest.raises(ResourceError):
            pd.destroy()
        mr.deregister()
        pd.destroy()

    def test_double_destroy_fails(self):
        ctx = Context()
        pd = ctx.alloc_pd()
        pd.destroy()
        with pytest.raises(ResourceError):
            pd.destroy()


class TestMemoryRegion:
    def test_register_allocates_memory(self):
        ctx = Context()
        pd = ctx.alloc_pd()
        mr = ctx.reg_mr(pd, 4096)
        assert mr.length == 4096
        assert ctx.memory.base <= mr.addr < ctx.memory.end
        assert ctx.mr_by_rkey(mr.rkey) is mr

    def test_huge_page_alignment(self):
        ctx = Context()
        pd = ctx.alloc_pd()
        mr = ctx.reg_mr(pd, 4096, huge_pages=True)
        assert mr.addr % (2 * 1024 * 1024) == 0

    def test_unique_rkeys(self):
        ctx = Context()
        pd = ctx.alloc_pd()
        keys = {ctx.reg_mr(pd, 64).rkey for _ in range(10)}
        assert len(keys) == 10

    def test_check_remote_bounds(self):
        ctx = Context()
        pd = ctx.alloc_pd()
        mr = ctx.reg_mr(pd, 4096)
        mr.check_remote(mr.addr, 4096, AccessFlags.REMOTE_READ)
        with pytest.raises(RemoteAccessError):
            mr.check_remote(mr.addr + 1, 4096, AccessFlags.REMOTE_READ)

    def test_check_remote_permissions(self):
        ctx = Context()
        pd = ctx.alloc_pd()
        mr = ctx.reg_mr(pd, 4096, access=AccessFlags.REMOTE_READ)
        mr.check_remote(mr.addr, 64, AccessFlags.REMOTE_READ)
        with pytest.raises(RemoteAccessError):
            mr.check_remote(mr.addr, 64, AccessFlags.REMOTE_WRITE)

    def test_deregistered_mr_rejects_access(self):
        ctx = Context()
        pd = ctx.alloc_pd()
        mr = ctx.reg_mr(pd, 4096)
        mr.deregister()
        with pytest.raises(RemoteAccessError):
            ctx.mr_by_rkey(mr.rkey)

    def test_zero_length_mr_rejected(self):
        ctx = Context()
        pd = ctx.alloc_pd()
        with pytest.raises(ResourceError):
            ctx.reg_mr(pd, 0)

    def test_foreign_pd_rejected(self):
        ctx_a, ctx_b = Context(), Context()
        pd_b = ctx_b.alloc_pd()
        with pytest.raises(ResourceError):
            ctx_a.reg_mr(pd_b, 64)


class TestCompletionQueue:
    def test_push_poll_fifo(self):
        cq = CompletionQueue(capacity=8)
        for i in range(3):
            cq.push(make_wc(wr_id=i))
        polled = cq.poll(max_entries=2)
        assert [wc.wr_id for wc in polled] == [0, 1]
        assert [wc.wr_id for wc in cq.poll(10)] == [2]

    def test_overflow_raises(self):
        cq = CompletionQueue(capacity=2)
        cq.push(make_wc())
        cq.push(make_wc())
        with pytest.raises(CQOverflowError):
            cq.push(make_wc())

    def test_callback_invoked(self):
        cq = CompletionQueue(capacity=4)
        seen = []
        cq.on_completion = seen.append
        wc = make_wc()
        cq.push(wc)
        assert seen == [wc]

    def test_drain(self):
        cq = CompletionQueue(capacity=4)
        cq.push(make_wc(wr_id=1))
        cq.push(make_wc(wr_id=2))
        assert [wc.wr_id for wc in cq.drain()] == [1, 2]
        assert len(cq) == 0

    def test_wc_latency_and_uli(self):
        wc = make_wc(post_time=100.0, complete_time=400.0, queue_ahead=2)
        assert wc.latency == 300.0
        assert wc.unit_latency_increase == 100.0

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ResourceError):
            CompletionQueue(capacity=0)
