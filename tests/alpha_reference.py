"""The tag route to m_alpha: (m_alpha, genus) of a family tag, as
veechfib.families.family_alpha_polynomial gave it before the program
read m_alpha off the model's Coxeter number and lost its last caller.

A weierstrass-<D> tag gives the quadratic of D's standard parameters, a
model tag (polygon-n, E7, E8) the m_alpha of its Coxeter number; no
model is built.  This only serves tests.
"""

from veechfib.families import coxeter_alpha_polynomial, weierstrass_alpha_polynomial
from veechfib.tags import capped_surface_tag, read_tag


def family_alpha_polynomial(family_tag):
    """Minimal polynomial of the congruence parameter, plus its genus."""
    kind, number = read_tag(family_tag)
    if kind == "weierstrass":
        return weierstrass_alpha_polynomial(number), 2
    m_alpha = coxeter_alpha_polynomial(capped_surface_tag(family_tag)[1])
    return m_alpha, m_alpha.degree
