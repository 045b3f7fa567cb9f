"""Test helpers with no caller in the package: a client that plays back canned LLM replies,
a prompt bundle whose text is cut, and the shape check of criterion 8's AUC-by-K series."""

from hisekt.errors import TransportError
from hisekt.llm import LlmClient
from hisekt.predict import PromptBundle


def scripted_client(replies, **kwargs):
    """A mock-backend client whose transport plays back ``replies`` in order."""
    queue = list(replies)

    def transport(prompt):
        del prompt
        if not queue:
            raise TransportError("scripted client exhausted")
        return queue.pop(0)

    return LlmClient(backend="mock", transport=transport, **kwargs)


class CutPromptBundle(PromptBundle):
    """A prediction prompt bundle whose text ends where its target question block would start."""

    @property
    def text(self) -> str:
        full = super().text
        return full[: full.index("=== TARGET QUESTION ===")]


def unimodal_or_plateau(values, tol=0.01):
    """True if the series rises (within tol) to some peak and never rises after it."""
    n = len(values)
    for peak in range(n):
        rising = all(values[i + 1] >= values[i] - tol for i in range(peak))
        falling = all(values[i + 1] <= values[i] + tol for i in range(peak, n - 1))
        if rising and falling:
            return True
    return False
