"""Dataset plumbing: label parsing, rasterization, the pinned split.

Parses polygon label lines, rasterizes one polygon with the pixel-center
rule, and partitions a 4029-item file list into 3717/200/112 with the
pinned linear-congruential shuffle (identical on every platform).

Run: ``python demos/dataset_pipeline.py``
"""

from crackscope.dataio import SplitSpec, parse_label_file, polygon_to_mask, split_dataset

label_text = """\
0 0.10 0.20 0.90 0.25 0.85 0.45 0.15 0.40
0 0.30 0.60 0.70 0.62 0.72 0.80 0.28 0.78
"""
records = parse_label_file(label_text)  # one table: a row per polygon
print(f"parsed {len(records)} polygon(s):")
for record in records:
    print(f"  class {record.class_id}, {len(record.polygon)} vertices")

mask = polygon_to_mask(records[0].polygon, 48, 16)
print("\nfirst polygon rasterized at 48 x 16 (pixel-center rule):")
for row in mask:
    print("".join("#" if v else "." for v in row))
print(f"foreground pixels: {int(mask.sum())}")

items = [f"crack_{i:04d}.jpg" for i in range(4029)]
train, val, test = split_dataset(items, SplitSpec(train=3717, val=200, test=112, seed=1))
print(f"\nsplit sizes: train={len(train)} val={len(val)} test={len(test)}")
print(f"first train items: {train[:3]}")
print(f"first val items:   {val[:3]}")
print(f"first test items:  {test[:3]}")
again = split_dataset(items, SplitSpec(train=3717, val=200, test=112, seed=1))
print(f"re-running with the same seed reproduces the partition: {again[0] == train}")
