//! Text-level rewrites of netlist decks: the same design in another
//! written form.

use crate::SplitMix;

/// `text` with its module lines and its net lines each shuffled.
pub fn shuffle_lines(text: &str, rng: &mut SplitMix) -> String {
    let (mut head, mut modules, mut nets) = (Vec::new(), Vec::new(), Vec::new());
    for line in text.lines() {
        match line.split_whitespace().next() {
            Some("module") => modules.push(line),
            Some("net") => nets.push(line),
            _ => head.push(line),
        }
    }
    for lines in [&mut modules, &mut nets] {
        for i in (1..lines.len()).rev() {
            lines.swap(i, rng.range(0, i as u64) as usize);
        }
    }
    let mut out = String::new();
    for line in head.into_iter().chain(modules).chain(nets) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// `text` with every module name prefixed by `prefix`, in module lines and
/// net member lists. The prefix keeps the names' relative order.
pub fn prefix_names(text: &str, prefix: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        let renamed: Vec<String> = match words.first() {
            Some(&"module") => words
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    if i == 1 {
                        format!("{prefix}{w}")
                    } else {
                        (*w).to_string()
                    }
                })
                .collect(),
            Some(&"net") => {
                let colon = words.iter().position(|w| *w == ":").unwrap_or(words.len());
                words
                    .iter()
                    .enumerate()
                    .map(|(i, w)| {
                        if i > colon {
                            format!("{prefix}{w}")
                        } else {
                            (*w).to_string()
                        }
                    })
                    .collect()
            }
            _ => vec![line.to_string()],
        };
        out.push_str(&renamed.join(" "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netlist::format;

    #[test]
    fn shuffled_deck_is_the_same_design() {
        let nl = fp_netlist::xerox10();
        let text = format::write(&nl);
        let shuffled = shuffle_lines(&text, &mut SplitMix::new(3));
        assert_ne!(shuffled, text);
        let back = format::parse(&shuffled).unwrap();
        assert_eq!(back.num_modules(), nl.num_modules());
        assert_eq!(back.num_nets(), nl.num_nets());
        assert_eq!(back.total_module_area(), nl.total_module_area());
    }

    #[test]
    fn prefixed_names_keep_order_and_nets() {
        let nl = fp_netlist::generator::ProblemGenerator::new(6, 2).generate();
        let back = format::parse(&prefix_names(&format::write(&nl), "j7_")).unwrap();
        let names: Vec<String> = back.modules().map(|(_, m)| m.name().to_string()).collect();
        let want: Vec<String> = nl
            .modules()
            .map(|(_, m)| format!("j7_{}", m.name()))
            .collect();
        assert_eq!(names, want);
        for ((_, a), (_, b)) in nl.nets().zip(back.nets()) {
            assert_eq!(a.modules(), b.modules());
        }
    }
}
