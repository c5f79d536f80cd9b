#!/usr/bin/env python3
# Walk through the core reduction on a small hand-written model: a ligand B
# binding reversibly to a substrate with two sites. Rates are intervals, and
# the two sites carry matching interval pairs, so the partly-bound
# configurations A01 and A10 are interchangeable.
import crnlump as cl

MODEL = """species B A00 A01 A10 A11
A00 + B -> A10 , [1.0 : 2.0]
A10 -> A00 + B , [0.5 : 0.75]
A00 + B -> A01 , [1.0 : 2.0]
A01 -> A00 + B , [0.5 : 0.75]
A10 + B -> A11 , [1.25 : 2.25]
A11 -> A10 + B , [0.25 : 0.4]
A01 + B -> A11 , [1.25 : 2.25]
A11 -> A01 + B , [0.25 : 0.4]
partition { B } { A00 } { A01 A10 } { A11 }
"""

doc = cl.parse_model(MODEL)
net = doc.network
print(f"original model: {net.n_species} species, {net.n_reactions} reactions")

# Is the declared partition a species equivalence? (Both interval endpoints
# are checked.)
print("declared partition is an equivalence:",
      cl.check_equivalence(net, doc.initial_partition))

# The coarsest equivalence refining it is the partition itself here.
part = cl.coarsest_equivalence(net, doc.initial_partition)
print("coarsest refinement:", [tuple(net.names[i] for i in b) for b in part.blocks])

# Build the quotient: A10 is dropped, its reactions fold into A01's, and
# parallel reactions fuse by summing interval endpoints.
lumped, _ = cl.quotient(net, part)
print("\nlumped model:")
print(cl.serialize_model(cl.ModelDocument(lumped)))

# Asking for A10 on its own instead collapses everything to singletons:
# no smaller exact model can single it out.
iso = cl.Partition([[net.index_of("A10")],
                    [i for i in range(net.n_species) if net.names[i] != "A10"]],
                   net.n_species)
print("isolating A10 gives", cl.coarsest_equivalence(net, iso).n_blocks,
      "blocks (no reduction possible)")
