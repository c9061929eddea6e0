"""The per-edge f-string text export that `graphs.export_graph` replaced with
a segmented byte gather, kept as the reference its output must match byte
for byte."""


def reference_export(g, format: str) -> bytes:
    if format == "edgelist":
        lines = [f"p {g.num_vertices} {g.num_edges}"]
        lines.extend(f"{u} {v}" for u, v in g.edges().tolist())
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "dot":
        lines = ["graph g {"]
        lines.extend(f"  {v};" for v in range(g.num_vertices))
        lines.extend(f"  {u} -- {v};" for u, v in g.edges().tolist())
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"no reference for format {format!r}")
