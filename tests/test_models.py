import pytest

from swapsim.graph import GraphError, graph_to_obj, tensor_bytes
from swapsim.models import UNetParams, gen_chain, gen_unet3d
from swapsim.training import cross_phase_tensors, expand_training_graph


TOY = UNetParams(dims=(8, 8, 8), in_channels=1, base_filters=1, depth=2,
                 convs_per_level=1)


class TestUNet:
    def test_full_size_input_tensor_bytes(self):
        g = gen_unet3d(UNetParams(dims=(192, 192, 192), in_channels=4))
        assert tensor_bytes(g.tensor("source:0")) == 113_246_208

    def test_toy_node_count_by_hand_enumeration(self):
        # depth 2, convs_per_level 1:
        #   source                                   1
        #   analysis/l0: conv, norm, act, pool       4
        #   analysis/l1: conv, norm, act             3
        #   bottleneck:  conv, norm, act             3
        #   synthesis/l0: upsample, concat,
        #                 conv, norm, act            5
        #   loss                                     1
        # total 17 nodes; every node but loss emits one tensor -> 16 tensors
        g = gen_unet3d(TOY)
        assert len(g.nodes) == 17
        assert len(g.tensors) == 16

    def test_208_cube_generates(self):
        g = gen_unet3d(UNetParams(dims=(208, 208, 208)))
        assert len(g.nodes) > 0

    def test_indivisible_dims_name_the_offender(self):
        with pytest.raises(GraphError, match="100"):
            gen_unet3d(UNetParams(dims=(100, 100, 100), depth=5))

    def test_analysis_extents_halve_per_level(self):
        p = UNetParams(dims=(32, 32, 32), in_channels=2, base_filters=4, depth=3)
        g = gen_unet3d(p)
        for k in range(p.depth):
            t = g.tensor(f"analysis/l{k}/conv1:0")
            assert t.shape == tuple(d // 2**k for d in p.dims)
            assert t.channels == p.base_filters * 2**k

    def test_concat_channels_are_shortcut_plus_upsampled(self):
        p = UNetParams(dims=(32, 32, 32), in_channels=2, base_filters=4, depth=3)
        g = gen_unet3d(p)
        for k in range(p.depth - 1):
            cat = g.tensor(f"synthesis/l{k}/concat:0")
            short = g.tensor(g.node(f"synthesis/l{k}/concat").inputs[0])
            up = g.tensor(f"synthesis/l{k}/upsample:0")
            assert cat.channels == short.channels + up.channels

    def test_every_synthesis_level_has_one_shortcut(self):
        p = UNetParams(dims=(32, 32, 32), depth=3, base_filters=2, in_channels=1)
        g = gen_unet3d(p)
        for k in range(p.depth - 1):
            concat = g.node(f"synthesis/l{k}/concat")
            shortcut_sources = [t for t in concat.inputs
                                if g.tensor(t).scope.startswith(f"analysis/l{k}/")]
            assert len(shortcut_sources) == 1

    def test_determinism_byte_identical(self):
        import json
        a = json.dumps(graph_to_obj(gen_unet3d(TOY)), sort_keys=True)
        b = json.dumps(graph_to_obj(gen_unet3d(TOY)), sort_keys=True)
        assert a == b

    def test_total_bytes_monotone_in_dims(self):
        totals = []
        for d in (16, 32, 64):
            g = gen_unet3d(UNetParams(dims=(d, d, d), in_channels=1, base_filters=2,
                                      depth=3))
            fwd = sum(tensor_bytes(t) for t in g.tensors)
            totals.append(fwd)
        assert totals[0] < totals[1] < totals[2]


class TestChain:
    def test_three_ops(self):
        g = gen_chain(3)
        assert [n.id for n in g.nodes] == ["op0", "op1", "op2"]
        assert [t.id for t in g.tensors] == ["t0", "t1", "t2"]

    def test_single_op(self):
        g = gen_chain(1)
        assert len(g.nodes) == 1 and len(g.tensors) == 1

    def test_requested_byte_size(self):
        g = gen_chain(4, bytes_per_tensor=4096)
        assert all(tensor_bytes(t) == 4096 for t in g.tensors)

    def test_kinds_cycle(self):
        g = gen_chain(4, kinds=("conv", "activation"))
        assert [n.kind for n in g.nodes] == ["conv", "activation", "conv", "activation"]

    def test_zero_length_rejected(self):
        with pytest.raises(GraphError):
            gen_chain(0)


class TestCountFeatureMaps:
    def test_expanded_chain(self):
        tg = expand_training_graph(gen_chain(3))
        assert len(cross_phase_tensors(tg)) == 3

    def test_toy_unet_equals_forward_tensor_count(self):
        # Every forward op output is reused by its grad, so the count is the
        # 16 forward tensors enumerated in the node-count test.
        tg = expand_training_graph(gen_unet3d(TOY))
        forward_tensors = [t for t in tg.graph.tensors
                           if tg.graph.node(t.producer).phase == "forward"]
        assert len(cross_phase_tensors(tg)) == len(forward_tensors) == 16

    def test_invariant_under_io_round_trip(self):
        from swapsim.training import training_from_obj, training_to_obj
        tg = expand_training_graph(gen_chain(5))
        tg2 = training_from_obj(training_to_obj(tg))
        assert cross_phase_tensors(tg2) == cross_phase_tensors(tg)
