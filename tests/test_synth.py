"""Synthetic benchmark generator: random molecules with a shared latent score."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from molscreen.smiles import parse_smiles
from molscreen.synth import (
    DESCRIPTOR_WEIGHTS,
    MAX_STALE_DRAWS,
    SynthMeta,
    descriptor_vector,
    latent_score,
    random_molecule,
    synth_dataset,
    task_oracle,
)
from molscreen.engine import rng_stream

sys.path.insert(0, str(Path(__file__).parent))
from helpers import noiseless_labels, traced_peak  # noqa: E402


class TestRandomMolecule:
    def test_valid_and_within_element_set(self):
        stream = rng_stream(0, 77)
        for _ in range(200):
            smi = random_molecule(stream)
            graph = parse_smiles(smi)  # must not raise
            assert 4 <= len(graph.atoms) <= 14
            for atom in graph.atoms:
                assert atom.atomic_number in (6, 7, 8)
                assert not atom.aromatic

    def test_rings_occur(self):
        stream = rng_stream(1, 77)
        ring_bonds = 0
        for _ in range(100):
            graph = parse_smiles(random_molecule(stream))
            ring_bonds += sum(b.in_ring for b in graph.bonds)
        assert ring_bonds > 0

    def test_deterministic(self):
        a = [random_molecule(rng_stream(5, 77)) for _ in range(10)]
        b = [random_molecule(rng_stream(5, 77)) for _ in range(10)]
        assert a == b


class TestDescriptors:
    def test_descriptor_vector_by_hand(self):
        # C1CC1N: 4 atoms, 3 ring bonds, 1 heteroatom, degrees (2,2,3,1)
        desc = descriptor_vector("C1CC1N")
        np.testing.assert_allclose(desc, [4.0, 3.0, 1.0, 2.0])

    def test_latent_score_is_linear_in_descriptors(self):
        for smi in ["CCO", "C1CC1N", "CCCCC", "OCC=O"]:
            expected = float(np.dot(DESCRIPTOR_WEIGHTS, descriptor_vector(smi)))
            assert latent_score(smi) == pytest.approx(expected, abs=1e-12)


class TestSynthDataset:
    def test_shapes_and_density(self):
        ds, meta = synth_dataset(n_tasks=3, n_per_task=50, seed=0)
        assert ds.n_compounds == 50
        assert ds.n_tasks == 3
        assert np.isfinite(ds.labels).all()
        assert len(set(ds.smiles)) == 50  # unique molecules
        assert meta.latent_scores.shape == (50,)

    def test_deterministic(self):
        a, meta_a = synth_dataset(n_tasks=2, n_per_task=30, seed=9)
        b, meta_b = synth_dataset(n_tasks=2, n_per_task=30, seed=9)
        assert a.smiles == b.smiles
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(meta_a.latent_scores, meta_b.latent_scores)

    def test_seed_changes_data(self):
        a, _ = synth_dataset(n_tasks=2, n_per_task=30, seed=1)
        b, _ = synth_dataset(n_tasks=2, n_per_task=30, seed=2)
        assert a.smiles != b.smiles

    def test_zero_noise_labels_are_affine_in_latent(self):
        ds, meta = synth_dataset(n_tasks=2, n_per_task=20, seed=5, noise_sigma=0.0)
        for t in range(2):
            expected = meta.a_values[t] * meta.latent_scores + meta.b_values[t]
            np.testing.assert_allclose(ds.labels[:, t], expected, atol=1e-12)

    def test_noiseless_labels_helper(self):
        ds, meta = synth_dataset(n_tasks=2, n_per_task=20, seed=6, noise_sigma=0.3)
        clean = noiseless_labels(meta, task=1)
        expected = meta.a_values[1] * meta.latent_scores + meta.b_values[1]
        np.testing.assert_allclose(clean, expected, atol=1e-12)
        # with noise on, the generated labels differ from the clean ones
        assert not np.allclose(ds.labels[:, 1], clean)

    def test_task_oracle_matches_labels_at_zero_noise(self):
        ds, meta = synth_dataset(n_tasks=2, n_per_task=15, seed=7, noise_sigma=0.0)
        oracle = task_oracle(meta, task=0)
        for i, smi in enumerate(ds.smiles):
            assert oracle(smi) == pytest.approx(ds.labels[i, 0], abs=1e-12)

    def test_label_bytes_checked_before_generating(self, monkeypatch):
        import molscreen.model as model_module

        # a and b, then the noise and the label matrix: 8 * 2 * (2 + 2 * 3)
        monkeypatch.setattr(model_module, "_memory_limit", lambda: 128)
        synth_dataset(n_tasks=2, n_per_task=3, seed=0)  # fits exactly
        monkeypatch.setattr(model_module, "_memory_limit", lambda: 127)
        with pytest.raises(MemoryError, match="n_tasks=2, n_per_task=3: .* 128 bytes"):
            synth_dataset(n_tasks=2, n_per_task=3, seed=0)

    def test_huge_task_count_allocates_nothing(self):
        def refused():
            with pytest.raises(MemoryError, match="n_tasks=1000000000000"):
                synth_dataset(n_tasks=10**12, n_per_task=2, seed=0)

        _, peak, _ = traced_peak(refused)
        assert peak < 2**21  # no molecule, no draw

    def test_requires_two_tasks(self):
        with pytest.raises(ValueError):
            synth_dataset(n_tasks=1, n_per_task=10, seed=0)

    @pytest.mark.parametrize("n_per_task", [0, -3])
    def test_n_per_task_below_one_rejected(self, n_per_task):
        with pytest.raises(ValueError, match=f"n_per_task must be >= 1, got {n_per_task}"):
            synth_dataset(n_tasks=2, n_per_task=n_per_task, seed=0)

    @pytest.mark.parametrize("noise_sigma", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_bad_noise_sigma_rejected(self, noise_sigma):
        with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
            synth_dataset(n_tasks=2, n_per_task=5, seed=0, noise_sigma=noise_sigma)

    @pytest.mark.parametrize("min_atoms", [0, -2])
    def test_min_atoms_below_one_rejected(self, min_atoms):
        with pytest.raises(ValueError, match=f"min_atoms must be >= 1, got {min_atoms}"):
            synth_dataset(n_tasks=2, n_per_task=5, seed=0, min_atoms=min_atoms)

    def test_min_atoms_above_max_atoms_rejected(self):
        with pytest.raises(ValueError, match=r"min_atoms \(5\) must not exceed max_atoms \(3\)"):
            synth_dataset(n_tasks=2, n_per_task=5, seed=0, min_atoms=5, max_atoms=3)

    def test_exhausted_atom_range_raises(self):
        # one heavy atom gives only C, N and O: three molecules, not five
        with pytest.raises(ValueError, match=f"found 3 .*{MAX_STALE_DRAWS} draws in a row"):
            synth_dataset(n_tasks=2, n_per_task=5, seed=0, min_atoms=1, max_atoms=1)

    def test_range_filled_exactly_terminates(self):
        ds, _ = synth_dataset(n_tasks=2, n_per_task=3, seed=0, min_atoms=1, max_atoms=1)
        assert sorted(ds.smiles) == ["C", "N", "O"]

    def test_meta_json_roundtrip(self):
        _, meta = synth_dataset(n_tasks=2, n_per_task=10, seed=8)
        back = SynthMeta.from_json(meta.to_json())
        assert back.seed == meta.seed
        assert back.a_values == meta.a_values
        assert back.b_values == meta.b_values
        assert back.noise_sigma == meta.noise_sigma
        np.testing.assert_array_equal(back.latent_scores, meta.latent_scores)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("seed", 1.5),
            ("n_tasks", True),
            ("n_tasks", 0),
            ("a_values", [1.0, 2.0, 3.0]),
            ("b_values", [1.0, float("nan")]),
            ("b_values", [1.0, 10**400]),
            ("noise_sigma", -0.1),
            ("latent_scores", [0.5, "0.5"]),
        ],
    )
    def test_meta_json_rejects_malformed_fields(self, key, value):
        _, meta = synth_dataset(n_tasks=2, n_per_task=10, seed=8)
        raw = json.loads(meta.to_json())
        raw[key] = value
        with pytest.raises(ValueError, match=key):
            SynthMeta.from_json(json.dumps(raw))

    def test_meta_json_must_be_a_complete_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            SynthMeta.from_json("[]")
        with pytest.raises(ValueError, match="lacks"):
            SynthMeta.from_json(json.dumps({"seed": 1}))
