"""Simulator and attack synthesis for two-party quantum protocols.

The package mechanizes two classic impossibility arguments.  For bit
commitment it builds Alice's EPR cheating unitary explicitly: whenever the
commit phase hides the bit from Bob, the Uhlmann rotation on her own
holding switches her commitment with success bounded only by the hiding
defect.  For coin tossing it runs the backward induction that peels an
"ideal" protocol round by round until the zero-round remnant contradicts
the no-communication bound on mutual information.
"""

from . import attack, cointoss, document, fidelity, protocol, qcore, schmidt
from .qcore import *  # noqa: F403
from .fidelity import *  # noqa: F403
from .schmidt import *  # noqa: F403
from .document import *  # noqa: F403
from .protocol import *  # noqa: F403
from .attack import *  # noqa: F403
from .cointoss import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is its public API; the package exports their union
__all__ = [name for module in (qcore, fidelity, schmidt, document, protocol, attack, cointoss)
           for name in module.__all__] + ["__version__"]
