"""Every supported boundary pair through the one per-end assembly.

The goldens were recorded when ``log_det_cylinder`` still gave each
boundary pair its own branch; the per-end rule must reproduce every
report, its term order included, bit for bit.  The mirror rows run on
the numeric backend, which has since moved from adaptive quadrature to a
Gauss-Legendre grid: their values are held to 16 ulp or 1e-14.  Their
truncations at L = 0.8 (about 4.5e-14 before) now also bound the stored
modes the series leave unsummed above the mirror's largest trusted mode.
The torus
rows read the torus zeta, which moved from a fixed-point Bessel pass to a
float64 Ewald split: their values are held to 1e-13 relative, with phases,
kernels, truncations and term order exact.  A spy holds each backend
to the terms that need it, and the segment oracle checks the Robin pairs
in both orientations against the closed forms on the point.
"""

import math

import pytest

from zetaglue import cylinder
from zetaglue.cylinder import BoundaryCondition as BC, CylinderSpec, log_det_cylinder
from zetaglue.oracle import SecularProblem, relative_log_det
from zetaglue.spectra import Circle, FlatTorus, Point, explicit_mirror

TWO_PI = 2.0 * math.pi
SECTIONS = {
    "circle": Circle(TWO_PI),
    "torus": FlatTorus(TWO_PI, 3.0),
    "mirror": explicit_mirror(Circle(8.5), 300.0),
}
PAIRS = ("D/D", "N/N", "N/D", "D/N", "R/R", "N/R", "R/N")


def ends(pair, alpha):
    """The two conditions of a pair written "X/Y", R being Robin(alpha)."""
    kinds = {"D": BC.dirichlet, "N": BC.neumann, "R": lambda: BC.robin(alpha)}
    return kinds[pair[0]](), kinds[pair[2]]()


# (section, L, pair, alpha or None for pairs without a Robin end,
#  log_det, phase, kernel_dim, truncation, terms in report order)
GOLDEN = [
    ("circle", 0.8, "D/D", None, -2.056167583598757, 0, 0, 6.407316808706502e-15, {
        "zero_modes": 0.47000362924573563, "residue_term": 0.0,
        "finite_part_term": -0.13333333333333333, "cross_det_half": -1.8378770664093453,
        "series": -0.5549608131018142}),
    ("circle", 0.8, "N/N", None, 1.6195865492199335, 0, 1, 6.407316808706502e-15, {
        "zero_modes": 0.47000362924573563, "residue_term": 0.0,
        "finite_part_term": -0.13333333333333333, "cross_det_half": 1.8378770664093453,
        "series": -0.5549608131018142}),
    ("circle", 0.8, "N/D", None, 1.0280750189941295, 0, 0, 6.407316808706502e-15, {
        "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.13333333333333333, "series": 0.4682611717675175}),
    ("circle", 0.8, "D/N", None, 1.0280750189941295, 0, 0, 6.407316808706502e-15, {
        "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.13333333333333333, "series": 0.4682611717675175}),
    ("circle", 0.8, "R/R", -0.3, -1.0217132480534725, 3, 0, 6.803553772835849e-15, {
        "s_alpha_term": 0.8317766166719341, "zero_modes": 2.4624337939359418, "residue_term": 0.0,
        "finite_part_term": -0.13333333333333333, "det_shifted": 0.2243395380401525,
        "cross_det_half": -1.8378770664093453, "series": -2.569052796958822}),
    ("circle", 0.8, "R/R", 0.5, 1.59090521520387, 0, 0, 7.0813277813515095e-15, {
        "s_alpha_term": -1.3862943611198904, "zero_modes": 2.2617630984737906,
        "residue_term": 0.0, "finite_part_term": -0.13333333333333333,
        "det_shifted": 2.7725887222397807, "cross_det_half": -1.8378770664093453,
        "series": -0.08594184464713214}),
    ("circle", 0.8, "N/R", -0.3, 0.00953828139508453, 1, 0, 6.602463513540206e-15, {
        "s_alpha_term": 0.41588830833596707, "zero_modes": 0.6931471805599453,
        "residue_term": 0.0, "finite_part_term": -0.13333333333333333,
        "det_shifted": 0.11216976902007625, "series": -1.0783336431875707}),
    ("circle", 0.8, "N/R", 0.5, 1.0490261776097183, 0, 0, 6.735897157870943e-15, {
        "s_alpha_term": -0.6931471805599452, "zero_modes": 0.6931471805599453,
        "residue_term": 0.0, "finite_part_term": -0.13333333333333333,
        "det_shifted": 1.3862943611198904, "series": -0.20393485017683885}),
    ("circle", 0.8, "R/N", -0.3, 0.00953828139508453, 1, 0, 6.602463513540206e-15, {
        "s_alpha_term": 0.41588830833596707, "zero_modes": 0.6931471805599453,
        "residue_term": 0.0, "finite_part_term": -0.13333333333333333,
        "det_shifted": 0.11216976902007625, "series": -1.0783336431875707}),
    ("circle", 0.8, "R/N", 0.5, 1.0490261776097183, 0, 0, 6.735897157870943e-15, {
        "s_alpha_term": -0.6931471805599452, "zero_modes": 0.6931471805599453,
        "residue_term": 0.0, "finite_part_term": -0.13333333333333333,
        "det_shifted": 1.3862943611198904, "series": -0.20393485017683885}),
    ("circle", 2.5, "D/D", None, -0.6587187374164473, 0, 0, 1.8842203707617993e-13, {
        "zero_modes": 1.6094379124341003, "residue_term": 0.0,
        "finite_part_term": -0.41666666666666663, "cross_det_half": -1.8378770664093453,
        "series": -0.013612916774535596}),
    ("circle", 2.5, "N/N", None, 3.0170353954022433, 0, 1, 1.8842203707617993e-13, {
        "zero_modes": 1.6094379124341003, "residue_term": 0.0,
        "finite_part_term": -0.41666666666666663, "cross_det_half": 1.8378770664093453,
        "series": -0.013612916774535596}),
    ("circle", 2.5, "N/D", None, 0.2900026246245793, 0, 0, 1.8842203707617993e-13, {
        "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.41666666666666663, "series": 0.013522110731300654}),
    ("circle", 2.5, "D/N", None, 0.2900026246245793, 0, 0, 1.8842203707617993e-13, {
        "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.41666666666666663, "series": 0.013522110731300654}),
    ("circle", 2.5, "R/R", -0.3, 0.8746421748985013, 3, 0, 2.329946680350501e-13, {
        "s_alpha_term": 0.8317766166719341, "zero_modes": 2.120263536200091, "residue_term": 0.0,
        "finite_part_term": -0.41666666666666663, "det_shifted": 0.2243395380401525,
        "cross_det_half": -1.8378770664093453, "series": -0.04719378293766437}),
    ("circle", 2.5, "R/R", 0.5, 1.6951691003030573, 0, 0, 2.685837457460046e-13, {
        "s_alpha_term": -1.3862943611198904, "zero_modes": 2.5649493574615367,
        "residue_term": 0.0, "finite_part_term": -0.41666666666666663,
        "det_shifted": 2.7725887222397807, "cross_det_half": -1.8378770664093453,
        "series": -0.0015308852023577125}),
    ("circle", 2.5, "N/R", -0.3, 0.779230425673894, 1, 0, 2.095264421953758e-13, {
        "s_alpha_term": 0.41588830833596707, "zero_modes": 0.6931471805599453,
        "residue_term": 0.0, "finite_part_term": -0.41666666666666663,
        "det_shifted": 0.11216976902007625, "series": -0.025308165575427963}),
    ("circle", 2.5, "N/R", 0.5, 0.9650757568945653, 0, 0, 2.2496021092409202e-13, {
        "s_alpha_term": -0.6931471805599452, "zero_modes": 0.6931471805599453,
        "residue_term": 0.0, "finite_part_term": -0.41666666666666663,
        "det_shifted": 1.3862943611198904, "series": -0.004551937558658558}),
    ("circle", 2.5, "R/N", -0.3, 0.779230425673894, 1, 0, 2.095264421953758e-13, {
        "s_alpha_term": 0.41588830833596707, "zero_modes": 0.6931471805599453,
        "residue_term": 0.0, "finite_part_term": -0.41666666666666663,
        "det_shifted": 0.11216976902007625, "series": -0.025308165575427963}),
    ("circle", 2.5, "R/N", 0.5, 0.9650757568945653, 0, 0, 2.2496021092409202e-13, {
        "s_alpha_term": -0.6931471805599452, "zero_modes": 0.6931471805599453,
        "residue_term": 0.0, "finite_part_term": -0.41666666666666663,
        "det_shifted": 1.3862943611198904, "series": -0.004551937558658558}),
    ("torus", 0.8, "D/D", None, -1.408705666956711, 0, 0, 7.379470672438518e-14, {
        "zero_modes": 0.47000362924573563, "residue_term": 0.0,
        "finite_part_term": -0.34703379832588827, "cross_det_half": -0.7412505008822581,
        "series": -0.7904249969943002}),
    ("torus", 0.8, "N/N", None, 0.0737953348078052, 0, 1, 7.379470672438518e-14, {
        "zero_modes": 0.47000362924573563, "residue_term": 0.0,
        "finite_part_term": -0.34703379832588827, "cross_det_half": 0.7412505008822581,
        "series": -0.7904249969943002}),
    ("torus", 0.8, "N/D", None, 1.044577427521237, 0, 0, 7.379470672438518e-14, {
        "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.34703379832588827, "series": 0.69846404528718}),
    ("torus", 0.8, "D/N", None, 1.044577427521237, 0, 0, 7.379470672438518e-14, {
        "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.34703379832588827, "series": 0.69846404528718}),
    ("torus", 0.8, "R/R", -0.3, -1.2026115350590534, 3, 0, 7.604213290104415e-14, {
        "s_alpha_term": 0.27, "zero_modes": 2.4624337939359418, "residue_term": 0.0,
        "finite_part_term": -0.34703379832588827, "det_shifted": 0.11326905089292037,
        "cross_det_half": -0.7412505008822581, "series": -2.9600300806797692}),
    ("torus", 0.8, "R/R", 0.5, -1.264573400823858, 0, 0, 7.757844429076928e-14, {
        "s_alpha_term": 0.75, "zero_modes": 2.2617630984737906, "residue_term": 0.0,
        "finite_part_term": -0.34703379832588827, "det_shifted": -2.999020743867816,
        "cross_det_half": -0.7412505008822581, "series": -0.1890314562216863}),
    ("torus", 0.8, "N/R", -0.3, -0.8434984871853726, 1, 0, 7.49099919645522e-14, {
        "s_alpha_term": 0.135, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.34703379832588827, "det_shifted": 0.056634525446460186,
        "series": -1.3812463948658897}),
    ("torus", 0.8, "N/R", 0.5, -1.1374866910184862, 0, 0, 7.566292714778732e-14, {
        "s_alpha_term": 0.375, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.34703379832588827, "det_shifted": -1.499510371933908,
        "series": -0.35908970131863516}),
    ("torus", 0.8, "R/N", -0.3, -0.8434984871853726, 1, 0, 7.49099919645522e-14, {
        "s_alpha_term": 0.135, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.34703379832588827, "det_shifted": 0.056634525446460186,
        "series": -1.3812463948658897}),
    ("torus", 0.8, "R/N", 0.5, -1.1374866910184862, 0, 0, 7.566292714778732e-14, {
        "s_alpha_term": 0.375, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.34703379832588827, "det_shifted": -1.499510371933908,
        "series": -0.35908970131863516}),
    ("torus", 2.5, "D/D", None, -0.23000137570468854, 0, 0, 2.5138771964295046e-13, {
        "zero_modes": 1.6094379124341003, "residue_term": 0.0,
        "finite_part_term": -1.0844806197684007, "cross_det_half": -0.7412505008822581,
        "series": -0.013708167488130026}),
    ("torus", 2.5, "N/N", None, 1.2524996260598276, 0, 1, 2.5138771964295046e-13, {
        "zero_modes": 1.6094379124341003, "residue_term": 0.0,
        "finite_part_term": -1.0844806197684007, "cross_det_half": 0.7412505008822581,
        "series": -0.013708167488130026}),
    ("torus", 2.5, "N/D", None, -0.3777160797016773, 0, 0, 2.5138771964295046e-13, {
        "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -1.0844806197684007, "series": 0.013617359506778129}),
    ("torus", 2.5, "D/N", None, -0.3777160797016773, 0, 0, 2.5138771964295046e-13, {
        "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -1.0844806197684007, "series": 0.013617359506778129}),
    ("torus", 2.5, "R/R", -0.3, 0.6304422475397905, 3, 0, 2.7952377007679024e-13, {
        "s_alpha_term": 0.27, "zero_modes": 2.120263536200091, "residue_term": 0.0,
        "finite_part_term": -1.0844806197684007, "det_shifted": 0.11326905089292037,
        "cross_det_half": -0.7412505008822581, "series": -0.04735921890256213}),
    ("torus", 2.5, "R/R", 0.5, -1.511371046805516, 0, 0, 3.0003176921485187e-13, {
        "s_alpha_term": 0.75, "zero_modes": 2.5649493574615367, "residue_term": 0.0,
        "finite_part_term": -1.0844806197684007, "det_shifted": -2.999020743867816,
        "cross_det_half": -0.7412505008822581, "series": -0.0015685397485778237}),
    ("torus", 2.5, "N/R", -0.3, -0.22513259151176024, 1, 0, 2.650827100087908e-13, {
        "s_alpha_term": 0.135, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -1.0844806197684007, "det_shifted": 0.056634525446460186,
        "series": -0.025433677749765002}),
    ("torus", 2.5, "N/R", 0.5, -1.5204556094858042, 0, 0, 2.746348526377553e-13, {
        "s_alpha_term": 0.375, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -1.0844806197684007, "det_shifted": -1.499510371933908,
        "series": -0.004611798343440807}),
    ("torus", 2.5, "R/N", -0.3, -0.22513259151176024, 1, 0, 2.650827100087908e-13, {
        "s_alpha_term": 0.135, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -1.0844806197684007, "det_shifted": 0.056634525446460186,
        "series": -0.025433677749765002}),
    ("torus", 2.5, "R/N", 0.5, -1.5204556094858042, 0, 0, 2.746348526377553e-13, {
        "s_alpha_term": 0.375, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -1.0844806197684007, "det_shifted": -1.499510371933908,
        "series": -0.004611798343440807}),
    ("mirror", 0.8, "D/D", None, -2.7816184953646124, 0, 0, 5.234236695149179e-12, {
        "zero_modes": 0.47000362924573563, "residue_term": 0.0,
        "finite_part_term": -0.09855976952438568, "cross_det_half": -2.1400661634962708,
        "series": -1.0129961915896915}),
    ("mirror", 0.8, "N/N", None, 1.4985138316279292, 0, 1, 5.234236695149179e-12, {
        "zero_modes": 0.47000362924573563, "residue_term": 0.0,
        "finite_part_term": -0.09855976952438568, "cross_det_half": 2.1400661634962708,
        "series": -1.0129961915896915}),
    ("mirror", 0.8, "N/D", None, 1.3908091347590885, 0, 0, 5.234236695149179e-12, {
        "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.09855976952438568, "series": 0.7962217237235288}),
    ("mirror", 0.8, "D/N", None, 1.3908091347590885, 0, 0, 5.234236695149179e-12, {
        "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.09855976952438568, "series": 0.7962217237235288}),
    ("mirror", 0.8, "R/R", -0.3, -0.1879924955005779, 5, 0, 5.616585693097238e-12, {
        "s_alpha_term": 1.1252415607785229, "zero_modes": 2.4624337939359418, "residue_term": 0.0,
        "finite_part_term": -0.09855976952438568, "det_shifted": -0.24758670109080502,
        "cross_det_half": -2.1400661634962708, "series": -1.289455216103581}),
    ("mirror", 0.8, "R/R", 0.5, 2.1550191602050868, 0, 0, 5.887008979611556e-12, {
        "s_alpha_term": -1.875402601297538, "zero_modes": 2.2617630984737906, "residue_term": 0.0,
        "finite_part_term": -0.09855976952438568, "det_shifted": 4.113473395962085,
        "cross_det_half": -2.1400661634962708, "series": -0.10618879991259457}),
    ("mirror", 0.8, "N/R", -0.3, -1.962697772488235, 1, 0, 5.422041339598672e-12, {
        "s_alpha_term": 0.5626207803892614, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.09855976952438568, "det_shifted": -0.12379335054540251,
        "series": -2.9961126133676537}),
    ("mirror", 0.8, "N/R", 0.5, 1.4412288219413154, 0, 0, 5.551034058522563e-12, {
        "s_alpha_term": -0.937701300648769, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.09855976952438568, "det_shifted": 2.0567366979810426,
        "series": -0.27239398642651785}),
    ("mirror", 0.8, "R/N", -0.3, -1.962697772488235, 1, 0, 5.422041339598672e-12, {
        "s_alpha_term": 0.5626207803892614, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.09855976952438568, "det_shifted": -0.12379335054540251,
        "series": -2.9961126133676537}),
    ("mirror", 0.8, "R/N", 0.5, 1.4412288219413154, 0, 0, 5.551034058522563e-12, {
        "s_alpha_term": -0.937701300648769, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.09855976952438568, "det_shifted": 2.0567366979810426,
        "series": -0.27239398642651785}),
    ("mirror", 2.5, "D/D", None, -0.890163855805098, 0, 0, 2.9563596015373847e-13, {
        "zero_modes": 1.6094379124341003, "residue_term": 0.0,
        "finite_part_term": -0.3079992797637052, "cross_det_half": -2.1400661634962708,
        "series": -0.05153632497922229}),
    ("mirror", 2.5, "N/N", None, 3.3899684711874434, 0, 1, 2.9563596015373847e-13, {
        "zero_modes": 1.6094379124341003, "residue_term": 0.0,
        "finite_part_term": -0.3079992797637052, "cross_det_half": 2.1400661634962708,
        "series": -0.05153632497922229}),
    ("mirror", 2.5, "N/D", None, 0.4354507400505547, 0, 0, 2.9563596015373847e-13, {
        "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.3079992797637052, "series": 0.05030283925431462}),
    ("mirror", 2.5, "D/N", None, 0.4354507400505547, 0, 0, 2.9563596015373847e-13, {
        "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.3079992797637052, "series": 0.05030283925431462}),
    ("mirror", 2.5, "R/R", -0.3, 0.2477340808935722, 3, 0, 3.655708401421986e-13, {
        "s_alpha_term": 1.1252415607785229, "zero_modes": 2.120263536200091, "residue_term": 0.0,
        "finite_part_term": -0.3079992797637052, "det_shifted": -0.24758670109080502,
        "cross_det_half": -2.1400661634962708, "series": -0.30211887173426066}),
    ("mirror", 2.5, "R/R", 0.5, 2.352790059111702, 0, 0, 4.2141044002833183e-13, {
        "s_alpha_term": -1.875402601297538, "zero_modes": 2.5649493574615367, "residue_term": 0.0,
        "finite_part_term": -0.3079992797637052, "det_shifted": 4.113473395962085,
        "cross_det_half": -2.1400661634962708, "series": -0.002164649754405913}),
    ("mirror", 2.5, "N/R", -0.3, 0.7010146571242948, 1, 0, 3.2874897160241733e-13, {
        "s_alpha_term": 0.5626207803892614, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.3079992797637052, "det_shifted": -0.12379335054540251,
        "series": -0.12296067351580416}),
    ("mirror", 2.5, "N/R", 0.5, 1.4939479045480895, 0, 0, 3.5296470086480726e-13, {
        "s_alpha_term": -0.937701300648769, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.3079992797637052, "det_shifted": 2.0567366979810426,
        "series": -0.010235393580424352}),
    ("mirror", 2.5, "R/N", -0.3, 0.7010146571242948, 1, 0, 3.2874897160241733e-13, {
        "s_alpha_term": 0.5626207803892614, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.3079992797637052, "det_shifted": -0.12379335054540251,
        "series": -0.12296067351580416}),
    ("mirror", 2.5, "R/N", 0.5, 1.4939479045480895, 0, 0, 3.5296470086480726e-13, {
        "s_alpha_term": -0.937701300648769, "zero_modes": 0.6931471805599453, "residue_term": 0.0,
        "finite_part_term": -0.3079992797637052, "det_shifted": 2.0567366979810426,
        "series": -0.010235393580424352}),
]


@pytest.mark.parametrize(
    "section, L, pair, alpha, log_det, phase, kernel, truncation, terms", GOLDEN,
    ids=[f"{s}-{L}-{p}-{a}" for s, L, p, a, *_ in GOLDEN],
)
def test_pair_reports(section, L, pair, alpha, log_det, phase, kernel, truncation, terms):
    rep = log_det_cylinder(CylinderSpec(SECTIONS[section], L, *ends(pair, alpha)))
    if section == "mirror":
        # the numeric backend's Gauss-Legendre grid moves its values by rounding
        # only (at most 2.2e-16 here), and the array passes over the stored
        # modes and the closed-form Weyl tails move the truncation by rounding
        # only; phases, kernels and term order stay exact
        assert (rep.phase_multiple, rep.kernel_dim) == (phase, kernel)
        assert math.isclose(rep.truncation, truncation, rel_tol=1e-12, abs_tol=0.0)
        assert list(rep.terms) == list(terms)
        for got, pinned in zip([rep.log_det, *rep.terms.values()], [log_det, *terms.values()]):
            assert abs(got - pinned) <= max(16 * math.ulp(pinned), 1e-14), (got, pinned)
        return
    if section == "torus":
        assert (rep.phase_multiple, rep.kernel_dim, rep.truncation) == (phase, kernel, truncation)
        assert list(rep.terms) == list(terms)
        for got, pinned in zip([rep.log_det, *rep.terms.values()], [log_det, *terms.values()]):
            assert abs(got - pinned) <= 1e-13 * abs(pinned), (got, pinned)
        return
    assert (rep.log_det, rep.phase_multiple, rep.kernel_dim, rep.truncation) == (
        log_det, phase, kernel, truncation
    )
    assert list(rep.terms.items()) == list(terms.items())


@pytest.mark.parametrize("pair", PAIRS)
def test_each_backend_runs_once_where_its_term_is(pair, monkeypatch):
    # ln Det* Delta_Y has weight -1/4 on D and R ends and +1/4 on N ends,
    # so only D/D, N/N and R/R read it; each Robin pair reads one shifted
    # determinant and one s_alpha, however many Robin ends it has
    calls = []
    for name in ("zeta_point", "log_det_star", "log_det_shifted", "s_alpha"):
        inner = getattr(cylinder, name)

        def spy(*args, _name=name, _inner=inner, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(cylinder, name, spy)
    log_det_cylinder(CylinderSpec(SECTIONS["circle"], 1.3, *ends(pair, 0.5)))
    star = ["log_det_star"] if pair in ("D/D", "N/N", "R/R") else []
    robin = ["log_det_shifted", "s_alpha"] if "R" in pair else []
    assert calls == ["zeta_point", *star, *robin]


@pytest.mark.parametrize("L", [1.0, 2.5])
@pytest.mark.parametrize("alpha", [0.25, 0.9, 3.0])
@pytest.mark.parametrize("pair", ["R/N", "N/R", "R/R"])
@pytest.mark.parametrize("ref", ["D/D", "N/N"])
def test_robin_pairs_match_the_oracle(pair, ref, alpha, L):
    # the oracle pairs eigenvalue lists only when the two problems have the
    # same parity of Dirichlet ends, so N/D cannot be a reference here
    rel = relative_log_det(
        SecularProblem(L, *ends(pair, alpha)), SecularProblem(L, *ends(ref, alpha)), count=4096
    )
    closed = (
        log_det_cylinder(CylinderSpec(Point(), L, *ends(pair, alpha))).log_det
        - log_det_cylinder(CylinderSpec(Point(), L, *ends(ref, alpha))).log_det
    )
    assert abs(rel.value - closed) <= 1e-9


# The scaling law.  Y -> cY, L -> cL and alpha -> alpha/c multiply every
# eigenvalue of the cylinder Laplacian by c^-2, so ln Det moves by exactly
# -2 zeta_cyl(0) ln c.  zeta_cyl(0) is the t^0 heat invariant less the zero
# modes (Branson-Gilkey, flat interior and flat boundary): on the segment
# +1/4 per Neumann or Robin end and -1/4 per Dirichlet end; on the circle
# S l / 2 pi per Robin end of length l, and on the torus S^2 A / 8 pi per
# Robin end of area A, with S = -alpha, the Robin parameter of
# d_n u + S u = 0 in the library's orientation.  alpha l and alpha^2 A are
# scale-free, so the law shares no code with the assembly.
SCALED = {
    "point": lambda c: Point(),
    "circle": lambda c: Circle(TWO_PI * c),
    "torus": lambda c: FlatTorus(TWO_PI * c, 3.0 * c),
}


def zeta_cyl_zero(section, pair, alpha):
    zero_modes = 1 if pair == "N/N" else 0
    if section == "point":
        return sum(-0.25 if end == "D" else 0.25 for end in pair.split("/")) - zero_modes
    robin = pair.count("R")
    S = -alpha
    if section == "circle":
        return robin * S * TWO_PI / (2.0 * math.pi) - zero_modes
    return robin * S * S * (TWO_PI * 3.0) / (8.0 * math.pi) - zero_modes


@pytest.mark.parametrize("c", [1.7, 0.6])
@pytest.mark.parametrize("pair", ["D/D", "N/N", "N/D", "R/R", "N/R"])
@pytest.mark.parametrize("section", list(SCALED))
def test_scaling_law(section, pair, c):
    L, alpha = 1.3, 0.4
    base = log_det_cylinder(CylinderSpec(SCALED[section](1.0), L, *ends(pair, alpha)))
    scaled = log_det_cylinder(CylinderSpec(SCALED[section](c), c * L, *ends(pair, alpha / c)))
    predicted = -2.0 * zeta_cyl_zero(section, pair, alpha) * math.log(c)
    assert abs(scaled.log_det - base.log_det - predicted) <= 1e-12
    assert scaled.phase_multiple == base.phase_multiple
