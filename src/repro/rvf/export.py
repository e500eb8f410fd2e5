"""Export of extracted models as analytical equations.

The paper's deliverable is "a set of analytical differential equations" that
can be "exported to almost any mathematical software package or behavioural
description language".  This module renders a :class:`HammersteinModel` in
two forms:

* :func:`model_equations` — a plain-text listing of the ODE system with the
  analytic static nonlinearities spelled out (atan/log expressions),
* :func:`to_verilog_a` — a Verilog-A flavoured behavioural module.
"""

from __future__ import annotations

from .hammerstein import HammersteinModel

__all__ = ["model_equations", "to_verilog_a"]


def _branch_label(index: int) -> str:
    return f"y{index + 1}"


def model_equations(model: HammersteinModel, precision: int = 6) -> str:
    """Human-readable listing of the extracted differential equations."""
    u = model.input_name
    lines = [
        f"// Analytical Hammerstein model extracted by recursive vector fitting",
        f"// input : {u}(t)    (state estimator x = ({u}(t)))",
        f"// output: {model.output_name}(t)",
        f"// {model.n_branches} branches, dynamic order {model.dynamic_order}, "
        f"stable by construction: {model.is_stable()}",
        "",
        "// static path (instantaneous nonlinearity)",
        f"F0({u}) = {model.static_function.to_expression(precision)}",
        "",
    ]
    for idx, branch in enumerate(model.branches):
        label = _branch_label(idx)
        pole = branch.pole
        kind = "complex pair" if branch.is_complex_pair else "real pole"
        lines.append(f"// branch {idx + 1}: {kind}, a = {pole.real:.{precision}g}"
                     f"{pole.imag:+.{precision}g}j rad/s")
        lines.append(f"f{idx + 1}({u}) = {branch.static_function.to_expression(precision)}")
        lines.append(f"d/dt {label}(t) = ({pole.real:.{precision}g}"
                     f"{pole.imag:+.{precision}g}j) * {label}(t) + f{idx + 1}({u}(t))")
        lines.append("")
    contributions = []
    for idx, branch in enumerate(model.branches):
        factor = "2*Re" if branch.is_complex_pair else "Re"
        contributions.append(f"{factor}{{{_branch_label(idx)}(t)}}")
    lines.append(f"{model.output_name}(t) = F0({u}(t))"
                 + "".join(f" + {c}" for c in contributions))
    return "\n".join(lines)


def to_verilog_a(model: HammersteinModel, module_name: str = "rvf_macromodel",
                 precision: int = 8) -> str:
    """Verilog-A flavoured behavioural module.

    Complex branches are emitted as the equivalent two-state real blocks so
    the listing only uses real arithmetic, as a behavioural simulator would
    require.  The listing is meant for export/inspection; it is not run by the
    test-suite (no Verilog-A simulator is available offline).
    """
    u, y = model.input_name, model.output_name
    lines = [
        "`include \"disciplines.vams\"",
        f"module {module_name}(pin, pout);",
        "  inout pin, pout;",
        "  electrical pin, pout;",
        f"  // extracted from {model.metadata.training_snapshots} TFT samples, "
        f"error bound {model.metadata.error_bound:g}",
    ]
    state_index = 0
    for idx, branch in enumerate(model.branches):
        if branch.is_complex_pair:
            lines.append(f"  real x{state_index}, x{state_index + 1};  // branch {idx + 1}")
            state_index += 2
        else:
            lines.append(f"  real x{state_index};  // branch {idx + 1}")
            state_index += 1
    lines.append("  analog begin")
    lines.append(f"    // static path: F0({u})")
    lines.append(f"    // F0 = {model.static_function.to_expression(precision)}")
    state_index = 0
    output_terms = ["F0"]
    for idx, branch in enumerate(model.branches):
        a = branch.pole
        f_expr = branch.static_function.to_expression(precision)
        if branch.is_complex_pair:
            sr, si = a.real, a.imag
            lines.extend([
                f"    // branch {idx + 1}: complex pair a = {sr:.{precision}g} +/- {si:.{precision}g}j",
                f"    // f{idx + 1}(u) = {f_expr}",
                f"    ddt(x{state_index})   == {sr:.{precision}g}*x{state_index} "
                f"+ {si:.{precision}g}*x{state_index + 1} + fre{idx + 1}(V(pin));",
                f"    ddt(x{state_index + 1}) == {-si:.{precision}g}*x{state_index} "
                f"+ {sr:.{precision}g}*x{state_index + 1} + fim{idx + 1}(V(pin));",
            ])
            output_terms.append(f"2.0*x{state_index}")
            state_index += 2
        else:
            lines.extend([
                f"    // branch {idx + 1}: real pole a = {a.real:.{precision}g}",
                f"    // f{idx + 1}(u) = {f_expr}",
                f"    ddt(x{state_index}) == {a.real:.{precision}g}*x{state_index} "
                f"+ f{idx + 1}(V(pin));",
            ])
            output_terms.append(f"x{state_index}")
            state_index += 1
    lines.append(f"    V(pout) <+ {' + '.join(output_terms)};")
    lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines)

