"""A bare PDA run as a scheme, for tests that need a delivery array with no
access topology around it."""

import numpy as np

from macc.simulate import ArrayScheme


class SharedLinkScheme(ArrayScheme):
    """A bare PDA run as a single-link system: one cache-node per user,
    holding exactly the starred rows of that user's column."""

    def __init__(self, pda):
        self.user_delivery = pda
        self.node_placement = self.user_retrieve
        self.user_nodes = np.arange(pda.num_cols)[:, None]
        self.guaranteed_known = 0
        self.user_blocks = tuple((k + 1,) for k in range(pda.num_cols))
