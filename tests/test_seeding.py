import pytest

from ferasec.errors import DomainError
from ferasec.seeding import derive_seed


class TestDeriveSeed:
    @pytest.mark.parametrize("parts", [(-1,), (0, -3), (2**64,), (True,), (0, "fold", False)])
    def test_bad_components_rejected(self, parts):
        with pytest.raises(DomainError, match="seed components"):
            derive_seed(*parts)
