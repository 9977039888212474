"""Table I: technical specifications of Piz Daint and Titan."""

from repro.hardware.specs import PIZ_DAINT, TITAN

PAPER = {
    "Piz Daint": dict(nodes=5272, gpus=5272, gpu="Tesla K20X",
                      cores=42176, node_perf="166.4+1311"),
    "Titan": dict(nodes=18688, gpus=18688, gpu="Tesla K20X",
                  cores=299008, node_perf="134.4+1311"),
}


def run() -> dict:
    rows = {}
    for spec in (PIZ_DAINT, TITAN):
        rows[spec.name] = dict(
            nodes=spec.num_nodes,
            gpus=spec.num_nodes,
            gpu=spec.node.gpu.model,
            cores=spec.num_nodes * spec.node.cpu.cores,
            node_perf=f"{spec.node.cpu.peak_dp_gflops:.1f}"
                      f"+{spec.node.gpu.peak_dp_gflops:.0f}",
        )
    return {"machines": rows, "paper": PAPER}


def report(results: dict) -> str:
    lines = ["Table I — machine specifications (model vs paper)"]
    for name, row in results["machines"].items():
        paper = results["paper"][name]
        lines.append(f"  {name:>10s}: nodes={row['nodes']} "
                     f"(paper {paper['nodes']}), cores={row['cores']} "
                     f"(paper {paper['cores']}), node perf "
                     f"{row['node_perf']} GF/s (paper {paper['node_perf']})")
    return "\n".join(lines)
