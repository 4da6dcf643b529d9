//! Disassembler: renders simulated programs in AArch64/SVE assembly
//! syntax, so kernel builders can be eyeballed against what a real
//! compiler emits (and so test failures print something readable).

use crate::isa::Instr;

/// Canonical short mnemonic of an instruction — the single source of
/// truth for instruction naming, shared by the opcode-mix accounting in
/// [`crate::exec`] and the decoded-trace executor in [`crate::decode`].
///
/// Names disambiguate the scalar/vector forms that share an assembly
/// mnemonic (`fadd` vs `fadd.z`, `ld1d` vs `ld1d.gather`) so a kernel's
/// dynamic mix separates its scalar scaffolding from its SVE body.
pub fn mnemonic(i: &Instr) -> &'static str {
    use Instr::*;
    match i {
        MovXI { .. } | MovX { .. } => "mov",
        AddXI { .. } | AddX { .. } => "add",
        MulXI { .. } => "mul",
        FMovDI { .. } | FMovD { .. } => "fmov",
        LdrD { .. } | LdrDScaled { .. } => "ldr",
        StrD { .. } | StrDScaled { .. } => "str",
        FAddD { .. } => "fadd",
        FSubD { .. } => "fsub",
        FMulD { .. } => "fmul",
        FMaddD { .. } => "fmadd",
        FNegD { .. } => "fneg",
        B { .. } => "b",
        BLtX { .. } => "b.lt",
        BGeX { .. } => "b.ge",
        PtrueD { .. } => "ptrue",
        WhileltD { .. } => "whilelt",
        DupZD { .. } | DupZI { .. } => "dup",
        MovZ { .. } => "mov.z",
        Ld1d { .. } => "ld1d",
        St1d { .. } => "st1d",
        Ld1dGather { .. } => "ld1d.gather",
        FAddZ { .. } => "fadd.z",
        FSubZ { .. } => "fsub.z",
        FMulZ { .. } => "fmul.z",
        FMlaZ { .. } => "fmla",
        FMlsZ { .. } => "fmls",
        FNegZ { .. } => "fneg.z",
        FaddvD { .. } => "faddv",
        IncdX { .. } => "incd",
        CntdX { .. } => "cntd",
    }
}

/// Render one instruction in assembler syntax.  Branch targets are
/// printed as `.L<index>` labels; use [`disassemble`] for whole programs
/// with label definitions inserted.
pub fn format_instr(i: &Instr) -> String {
    use Instr::*;
    match *i {
        MovXI { d, imm } => format!("mov     x{}, #{}", d.0, imm),
        MovX { d, n } => format!("mov     x{}, x{}", d.0, n.0),
        AddXI { d, n, imm } => {
            if imm < 0 {
                format!("sub     x{}, x{}, #{}", d.0, n.0, -imm)
            } else {
                format!("add     x{}, x{}, #{}", d.0, n.0, imm)
            }
        }
        AddX { d, n, m } => format!("add     x{}, x{}, x{}", d.0, n.0, m.0),
        MulXI { d, n, imm } => format!("mul     x{}, x{}, #{}", d.0, n.0, imm),
        FMovDI { d, imm } => format!("fmov    d{}, #{}", d.0, imm),
        FMovD { d, n } => format!("fmov    d{}, d{}", d.0, n.0),
        LdrD { d, base, offset } => format!("ldr     d{}, [x{}, #{}]", d.0, base.0, offset),
        LdrDScaled { d, base, index } => {
            format!("ldr     d{}, [x{}, x{}, lsl #3]", d.0, base.0, index.0)
        }
        StrD { s, base, offset } => format!("str     d{}, [x{}, #{}]", s.0, base.0, offset),
        StrDScaled { s, base, index } => {
            format!("str     d{}, [x{}, x{}, lsl #3]", s.0, base.0, index.0)
        }
        FAddD { d, n, m } => format!("fadd    d{}, d{}, d{}", d.0, n.0, m.0),
        FSubD { d, n, m } => format!("fsub    d{}, d{}, d{}", d.0, n.0, m.0),
        FMulD { d, n, m } => format!("fmul    d{}, d{}, d{}", d.0, n.0, m.0),
        FMaddD { d, n, m, a } => format!("fmadd   d{}, d{}, d{}, d{}", d.0, n.0, m.0, a.0),
        FNegD { d, n } => format!("fneg    d{}, d{}", d.0, n.0),
        B { target } => format!("b       .L{target}"),
        BLtX { n, m, target } => format!("cmp     x{}, x{} ; b.lt .L{}", n.0, m.0, target),
        BGeX { n, m, target } => format!("cmp     x{}, x{} ; b.ge .L{}", n.0, m.0, target),
        PtrueD { d } => format!("ptrue   p{}.d", d.0),
        WhileltD { d, n, m } => format!("whilelt p{}.d, x{}, x{}", d.0, n.0, m.0),
        DupZD { d, n } => format!("mov     z{}.d, d{}", d.0, n.0),
        DupZI { d, imm } => format!("fdup    z{}.d, #{}", d.0, imm),
        MovZ { d, n } => format!("mov     z{}.d, z{}.d", d.0, n.0),
        Ld1d { t, pg, base, index } => {
            format!("ld1d    {{z{}.d}}, p{}/z, [x{}, x{}, lsl #3]", t.0, pg.0, base.0, index.0)
        }
        St1d { t, pg, base, index } => {
            format!("st1d    {{z{}.d}}, p{}, [x{}, x{}, lsl #3]", t.0, pg.0, base.0, index.0)
        }
        Ld1dGather { t, pg, base, idx } => {
            format!("ld1d    {{z{}.d}}, p{}/z, [x{}, z{}.d, lsl #3]", t.0, pg.0, base.0, idx.0)
        }
        FAddZ { d, pg, n, m } => {
            format!("fadd    z{}.d, p{}/z, z{}.d, z{}.d", d.0, pg.0, n.0, m.0)
        }
        FSubZ { d, pg, n, m } => {
            format!("fsub    z{}.d, p{}/z, z{}.d, z{}.d", d.0, pg.0, n.0, m.0)
        }
        FMulZ { d, pg, n, m } => {
            format!("fmul    z{}.d, p{}/z, z{}.d, z{}.d", d.0, pg.0, n.0, m.0)
        }
        FMlaZ { da, pg, n, m } => {
            format!("fmla    z{}.d, p{}/m, z{}.d, z{}.d", da.0, pg.0, n.0, m.0)
        }
        FMlsZ { da, pg, n, m } => {
            format!("fmls    z{}.d, p{}/m, z{}.d, z{}.d", da.0, pg.0, n.0, m.0)
        }
        FNegZ { d, pg, n } => format!("fneg    z{}.d, p{}/z, z{}.d", d.0, pg.0, n.0),
        FaddvD { d, pg, n } => format!("faddv   d{}, p{}, z{}.d", d.0, pg.0, n.0),
        IncdX { d } => format!("incd    x{}", d.0),
        CntdX { d } => format!("cntd    x{}", d.0),
    }
}

/// Render a whole program with `.L<n>:` labels at branch targets.
pub fn disassemble(prog: &[Instr]) -> String {
    use std::collections::BTreeSet;
    let mut targets = BTreeSet::new();
    for i in prog {
        if let Instr::B { target } | Instr::BLtX { target, .. } | Instr::BGeX { target, .. } = i {
            targets.insert(*target);
        }
    }
    let mut out = String::new();
    for (at, i) in prog.iter().enumerate() {
        if targets.contains(&at) {
            out.push_str(&format!(".L{at}:\n"));
        }
        out.push_str("        ");
        out.push_str(&format_instr(i));
        out.push('\n');
    }
    if targets.contains(&prog.len()) {
        out.push_str(&format!(".L{}:\n", prog.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{scalar, sve_code};

    #[test]
    fn sve_daxpy_reads_like_compiler_output() {
        let text = disassemble(&sve_code::daxpy());
        assert!(text.contains("whilelt p0.d, x3, x2"), "{text}");
        assert!(text.contains("ld1d    {z1.d}, p0/z"), "{text}");
        assert!(text.contains("fmla    z2.d, p0/m, z1.d, z0.d"), "{text}");
        assert!(text.contains("incd    x3"), "{text}");
        // Loop structure: a label and a backward branch to it.
        assert!(text.contains(".L"), "{text}");
    }

    #[test]
    fn scalar_matvec_lists_five_band_loads() {
        let text = disassemble(&scalar::matvec());
        // 10 scaled loads per iteration: 5 coefficients + 5 stencil legs.
        let loads = text.matches("ldr     d").count();
        assert_eq!(loads, 10, "{text}");
        assert_eq!(text.matches("fmadd").count(), 4);
    }

    #[test]
    fn every_kernel_disassembles_every_instruction() {
        for prog in [
            scalar::daxpy(),
            scalar::dprod(),
            scalar::dscal(),
            scalar::ddaxpy(),
            scalar::matvec(),
            sve_code::daxpy(),
            sve_code::dprod(),
            sve_code::dscal(),
            sve_code::ddaxpy(),
            sve_code::matvec(),
        ] {
            let text = disassemble(&prog);
            assert_eq!(
                text.lines().filter(|l| !l.trim_start().starts_with(".L")).count(),
                prog.len()
            );
        }
    }

    #[test]
    fn labels_mark_branch_targets() {
        let prog = sve_code::dprod();
        let text = disassemble(&prog);
        for line in text.lines() {
            if let Some(rest) = line.trim().strip_prefix("b.lt .L") {
                let target: usize = rest.trim_end_matches(':').parse().unwrap();
                assert!(text.contains(&format!(".L{target}:")), "missing label {target}");
            }
        }
    }
}
