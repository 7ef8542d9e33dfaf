"""The benchmark's workloads: which randqnet commands each one runs.

README.md gives the reason for every command. The workload seed reaches
the program only as the Monte Carlo ``--seed``; everything else is fixed,
so the stored references apply to every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Command classes, in report order. Each has a ``<class>_s`` end-to-end metric.
CLASSES = ("pc_table", "pc_curve", "pc_mc", "evolve_dynamic", "evolve_static", "asymptote")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    # Wrong values the program printed when this benchmark was defined, as
    # (column, {key column: value}, count) groups. They count as failures
    # like any other miss; only misses beyond them make a run incorrect.
    known_defects: tuple = field(default=())

    @property
    def cls(self) -> str:
        return "_".join(self.argv[:2]) if self.argv[0] in ("pc", "evolve") else self.argv[0]

    def flag(self, name: str, default: str | None = None) -> str | None:
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return default

    def without(self, name: str) -> tuple[str, ...]:
        """The arguments without flag ``name`` and its value."""
        if name not in self.argv:
            return self.argv
        i = self.argv.index(name)
        return self.argv[:i] + self.argv[i + 2:]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def commands(workload: str, seed: int) -> list[Command]:
    s = str(seed)
    if workload == "paper":
        return [
            Command(("pc", "table", "--p", "1/2", "--nmax", "20")),
            Command(("pc", "curve", "--nmax", "15")),
            Command(("pc", "mc", "--n", "7", "--p", "1/2", "--samples", "1000000", "--seed", s)),
            Command(("pc", "mc", "--n", "10", "--p", "1/2", "--samples", "1000000", "--seed", s, "--threads", "1")),
            Command(("pc", "mc", "--n", "10", "--p", "1/2", "--samples", "1000000", "--seed", s, "--threads", "2")),
            Command(("evolve", "dynamic", "--n", "4", "--rmax", "200"), known_defects=(("distance", {}, 358),)),
            Command(("evolve", "static", "--n", "4", "--rmax", "4")),
            Command(("asymptote", "--n", "5", "--state", "zero")),
            Command(("asymptote", "--n", "5", "--state", "plus")),
            Command(("asymptote", "--n", "5", "--state", "mixed")),
        ]
    if workload == "scale":
        return [
            Command(("pc", "curve", "--p-list", "1/100,1/20,1/5,1/2", "--nmax", "160"),
                    known_defects=(("p_c", {"p": "1/100"}, 154), ("p_c", {"p": "1/20"}, 3))),
            Command(("pc", "table", "--p", "1/2", "--nmax", "240", "--precision", "12")),
            Command(("pc", "mc", "--n", "20", "--p", "3/10", "--samples", "500000", "--seed", s, "--threads", "1")),
            Command(("pc", "mc", "--n", "20", "--p", "3/10", "--samples", "500000", "--seed", s, "--threads", "2")),
            Command(("pc", "mc", "--n", "10", "--p", "7/10", "--samples", "1000000", "--seed", s)),
            Command(("evolve", "dynamic", "--n", "5", "--rmax", "5")),
            Command(("evolve", "static", "--n", "3", "--rmax", "400")),
            Command(("asymptote", "--n", "6", "--state", "plus")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("paper", "scale")
